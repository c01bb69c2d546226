"""Outside-in span tracing for the benchmark's traced runs.

The benchmark never edits the program under test.  In a traced run the
benchmark's child process calls :func:`install`, which replaces the
public entry points of each layer with thin wrappers that record one
span per call (name, layer, start, end, self time, depth) in memory.
The spans are written once, when the process ends, as a small JSON
file; the parent turns them into Chrome trace events and per-layer
metrics.  Untraced runs never import this module.

Self time is a span's duration minus the time its direct child spans
cover, so summing self time by layer splits a process's traced time
across layers without double counting.  All timestamps come from
``time.monotonic`` (``CLOCK_MONOTONIC``), which is shared by every
process on the host, so spans of the service daemon, its forked
workers and the client line up on one time axis.
"""

from __future__ import annotations

import functools
import json
import os
import time
from typing import Any, Callable, Dict, List

LAYERS = (
    "proc",
    "storage",
    "checkpoint",
    "kernel",
    "pipeline",
    "dynamic",
    "service",
    "obs",
)


class Recorder:
    """In-memory span list plus exact per-process counters."""

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        #: ``[name, layer, start, end, self_seconds, depth]`` per span.
        self.spans: List[list] = []
        self.counters: Dict[str, Any] = {}
        self._stack: List[list] = []

    def call(self, name: str, layer: str, fn: Callable, *args, **kwargs):
        frame = [name, 0.0]
        self._stack.append(frame)
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.monotonic()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans.append(
                [name, layer, start, end, duration - frame[1], len(self._stack)]
            )

    def inside(self, prefix: str) -> bool:
        return bool(self._stack) and self._stack[-1][0].startswith(prefix)

    def add(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def append(self, key: str, value: Any) -> None:
        self.counters.setdefault(key, []).append(value)

    def dump(self, path: str) -> None:
        payload = {"pid": os.getpid(), "spans": self.spans, "counters": self.counters}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle)


RECORDER = Recorder()


def _wrap(name: str, layer: str, fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return RECORDER.call(name, layer, fn, *args, **kwargs)

    return wrapper


def _wrap_iter(name: str, layer: str, fn: Callable, counter: str) -> Callable:
    """Wrap a generator function: one span per ``next()`` on its iterator."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not RECORDER.inside(name):
            RECORDER.add(counter)
        iterator = iter(fn(*args, **kwargs))
        while True:
            try:
                item = RECORDER.call(name, layer, next, iterator)
            except StopIteration:
                return
            yield item

    return wrapper


def _wrap_kernel(name: str, fn: Callable) -> Callable:
    """A kernel pass: time it and keep its round telemetry (exact counters)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        result = RECORDER.call(name, "kernel", fn, *args, **kwargs)
        RECORDER.add("kernel.rounds", len(result.rounds))
        RECORDER.add("kernel.productive_rounds", sum(r.gained > 0 for r in result.rounds))
        RECORDER.add(
            "kernel.swaps",
            sum(r.one_k_swaps + r.two_k_swaps + r.zero_one_swaps for r in result.rounds),
        )
        return result

    return wrapper


def _wrap_checkpoint_write(fn: Callable) -> Callable:
    @functools.wraps(fn)
    def wrapper(path, *args, **kwargs):
        RECORDER.call("checkpoint.write", "checkpoint", fn, path, *args, **kwargs)
        RECORDER.add("checkpoint.writes")
        RECORDER.append("checkpoint.bytes", os.path.getsize(path))

    return wrapper


def _patch(owner: Any, attr: str, make: Callable[[Callable], Callable]) -> None:
    setattr(owner, attr, make(getattr(owner, attr)))


def install(spans_dir: str) -> None:
    """Wrap every traced entry point of the program in this process."""

    import repro.pipeline.engine as engine_mod
    import repro.pipeline.stages as stages_mod
    import repro.pipeline.stream as stream_mod
    import repro.service.service as service_mod
    import repro.service.worker as worker_mod
    import repro.storage.registry as registry_mod
    from repro.dynamic.maintainer import DynamicMISMaintainer
    from repro.obs.journal import EventJournal
    from repro.pipeline.context import ExecutionContext
    from repro.service.cache import ResultCache
    from repro.service.client import ServiceClient
    from repro.service.jobstore import JobStore
    from repro.storage.adjacency_file import AdjacencyFileReader
    from repro.storage.binary_format import MemmapAdjacencySource
    from repro.storage.scan import InMemoryAdjacencyScan

    # storage: open, scan iterators, checkpoint encode/write
    for module in (registry_mod, worker_mod):
        _patch(module, "open_adjacency_source", lambda f: _wrap("storage.open", "storage", f))
    for cls in (AdjacencyFileReader, MemmapAdjacencySource, InMemoryAdjacencyScan):
        for method in ("scan", "scan_batches"):
            _patch(
                cls,
                method,
                lambda f: _wrap_iter("storage.scan", "storage", f, "storage.scans"),
            )
    for module in (engine_mod, stream_mod):
        _patch(module, "write_checkpoint", _wrap_checkpoint_write)
        _patch(
            module,
            "encode_section",
            lambda f: _wrap("checkpoint.encode", "checkpoint", f),
        )

    # core.kernels: the passes behind each pipeline stage
    for attr, name in (
        ("greedy_mis", "kernel.greedy"),
        ("one_k_swap", "kernel.one_k"),
        ("two_k_swap", "kernel.two_k"),
    ):
        _patch(stages_mod, attr, lambda f, name=name: _wrap_kernel(name, f))

    # pipeline: context, engine, stream session
    create = ExecutionContext.create.__func__
    ExecutionContext.create = classmethod(
        _wrap("context.create", "pipeline", create)
    )
    _patch(
        ExecutionContext,
        "materialize_graph",
        lambda f: _wrap("context.materialize", "pipeline", f),
    )
    _patch(engine_mod.PipelineEngine, "run", lambda f: _wrap("engine.run", "pipeline", f))
    _patch(stream_mod, "load_updates", lambda f: _wrap("stream.load_updates", "pipeline", f))
    _patch(
        stream_mod.StreamSession,
        "process",
        lambda f: _wrap_iter("stream.batch", "pipeline", f, "stream.sessions"),
    )

    # dynamic: the maintainer
    _patch(DynamicMISMaintainer, "__init__", lambda f: _wrap("dynamic.init", "dynamic", f))
    _patch(
        DynamicMISMaintainer,
        "apply_updates",
        lambda f: _wrap("dynamic.apply", "dynamic", f),
    )
    _patch(
        DynamicMISMaintainer,
        "state_payload",
        lambda f: _wrap("dynamic.state_payload", "dynamic", f),
    )

    # service: client, scheduler, worker, job store, cache
    _patch(ServiceClient, "submit", lambda f: _wrap("service.submit", "service", f))
    _patch(ServiceClient, "result", lambda f: _wrap("service.result", "service", f))
    _patch(service_mod.SolverService, "run_once", lambda f: _wrap("service.pass", "service", f))
    _patch(worker_mod, "execute_job", lambda f: _wrap("service.job", "service", f))
    _patch(JobStore, "write", lambda f: _wrap("service.store_write", "service", f))
    _patch(ResultCache, "get", lambda f: _wrap("service.cache_get", "service", f))
    _patch(ResultCache, "put", lambda f: _wrap("service.cache_put", "service", f))

    # obs: journal appends
    _patch(EventJournal, "emit", lambda f: _wrap("obs.journal_emit", "obs", f))

    def traced_worker_main(root: str, job_id: str) -> None:
        # A forked worker inherits the daemon's spans and open stack.
        RECORDER.reset()
        try:
            code = worker_mod.execute_job(root, job_id)
        finally:
            RECORDER.dump(os.path.join(spans_dir, f"spans-{os.getpid()}.json"))
        raise SystemExit(code)

    service_mod.worker_main = traced_worker_main


# ----------------------------------------------------------------------
# Parent side: roll-up and Chrome trace export
# ----------------------------------------------------------------------
def load_spans(spans_dir: str) -> List[dict]:
    """Every span file a traced run left behind, one dict per process."""

    documents = []
    for name in sorted(os.listdir(spans_dir)):
        if name.startswith("spans-") and name.endswith(".json"):
            with open(os.path.join(spans_dir, name), encoding="utf-8") as handle:
                documents.append(json.load(handle))
    return documents


def rollup(documents: List[dict]) -> Dict[str, Any]:
    """Per-name and per-layer totals over the spans of one traced run."""

    names: Dict[str, Dict[str, Any]] = {}
    layers = {layer: 0.0 for layer in LAYERS}
    intervals = []
    counters: Dict[str, Any] = {}
    for document in documents:
        for name, layer, start, end, self_seconds, depth in document["spans"]:
            entry = names.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0, "durations": []})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += self_seconds
            entry["durations"].append(end - start)
            layers[layer] += self_seconds
            if depth == 0:
                intervals.append((start, end))
        for key, value in document["counters"].items():
            if isinstance(value, list):
                counters.setdefault(key, []).extend(value)
            else:
                counters[key] = counters.get(key, 0) + value
    return {"names": names, "layers": layers, "intervals": intervals, "counters": counters}


def covered_seconds(intervals, start: float, end: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[start, end]``."""

    total = 0.0
    cursor = start
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, cursor), min(hi, end)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def chrome_events(documents: List[dict], origin: float, label: str) -> List[dict]:
    """Spans as Chrome trace ``X`` events (Perfetto, ``validate_trace``)."""

    events = []
    for document in documents:
        pid = int(document["pid"])
        events.append(
            {"name": "process_name", "ph": "M", "pid": pid, "tid": 0, "args": {"name": label}}
        )
        for name, layer, start, end, self_seconds, depth in document["spans"]:
            events.append(
                {
                    "name": name,
                    "cat": layer,
                    "ph": "X",
                    "ts": max(int(round((start - origin) * 1e6)), 0),
                    "dur": max(int(round((end - start) * 1e6)), 0),
                    "pid": pid,
                    "tid": 0,
                    "args": {"self_us": int(round(self_seconds * 1e6))},
                }
            )
    return events
