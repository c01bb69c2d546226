"""One process under test, driven through the program's public API.

``python3 perfbench/child.py SPEC.json`` runs the mode the spec names:

``solve``
    Open a graph file, build the execution context and run one pipeline,
    exactly as ``repro-mis solve`` does.
``stream``
    Open a graph, materialize it and drain an update file through a
    ``StreamSession``, exactly as ``repro-mis watch`` does.
``client``
    A closed-loop service client: keep a fixed number of jobs in flight
    against a running ``repro-mis serve`` daemon until every job of the
    plan has a result.
``daemon``
    ``repro-mis serve`` with the tracing wrappers installed (traced runs
    only; untraced runs launch the real CLI).

Each mode prints ``ready`` on stdout once set-up is done, so the parent
can time set-up from outside, and writes its outputs to the spec's
``out`` prefix after the work is done.  With ``trace`` set, the
wrappers of :mod:`tracing` are installed and the spans are written to
``spans_dir`` at exit.
"""

from __future__ import annotations

import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))


def _ready() -> None:
    sys.stdout.write("ready\n")
    sys.stdout.flush()


def run_solve(spec: dict, out: dict) -> None:
    import numpy as np

    from repro.core.solver import PIPELINES
    from repro.pipeline.context import ExecutionContext
    from repro.pipeline.engine import PipelineEngine
    from repro.storage import registry

    # The engine's progress hook fires after every pass over the graph
    # (the greedy stage, each swap round) and at the final stage boundary.
    marks = []
    reader = registry.open_adjacency_source(spec["input"])
    ctx = ExecutionContext.create(reader)
    engine = PipelineEngine(
        PIPELINES[spec["pipeline"]],
        max_rounds=spec["max_rounds"],
        checkpoint_path=spec.get("checkpoint"),
        progress=lambda: marks.append(time.monotonic()),
    )
    _ready()
    start = time.monotonic()
    try:
        result = engine.run(ctx)
    finally:
        reader.close()
    rounds = result.rounds
    out.update(
        passes=np.diff([start] + marks[:-1]).tolist(),
        is_size=result.size,
        rounds=len(rounds),
        swaps=sum(r.one_k_swaps + r.two_k_swaps + r.zero_one_swaps for r in rounds),
        sequential_scans=result.io.sequential_scans,
        random_vertex_lookups=result.io.random_vertex_lookups,
        bytes_read=result.io.bytes_read,
        memory_bytes=result.memory_bytes,
    )
    np.save(spec["out"] + ".npy", np.fromiter(result.independent_set, dtype=np.int64))


def run_stream(spec: dict, out: dict) -> None:
    import numpy as np

    from repro.pipeline.context import ExecutionContext
    from repro.pipeline.stream import StreamSession
    from repro.service.cache import input_digest
    from repro.storage import registry

    reader = registry.open_adjacency_source(spec["input"])
    try:
        ctx = ExecutionContext.create(reader)
        session = StreamSession(
            ctx.materialize_graph(),
            spec["updates"],
            graph_digest=input_digest(spec["input"]),
            pipeline=spec["pipeline"],
            batch_size=spec["batch_size"],
            checkpoint=spec.get("checkpoint"),
        )
        bytes_read = reader.stats.bytes_read
        _ready()
        batches = []
        mark = time.monotonic()
        for _report in session.process():
            now = time.monotonic()
            batches.append(now - mark)
            mark = now
    finally:
        reader.close()
    summary = session.result()
    wave = summary["wave"]
    out.update(
        is_size=summary["set_size"],
        batches=batches,
        batches_applied=summary["batches_applied"],
        num_edges=summary["num_edges"],
        evictions=summary["stats"]["evictions"],
        conflict_density=summary["conflict_density"],
        sub_waves=wave["sub_waves"],
        scalar_fallbacks=wave["scalar_fallbacks"],
        bytes_read=bytes_read,
    )
    np.save(spec["out"] + ".npy", np.asarray(summary["independent_set"], dtype=np.int64))


def run_client(spec: dict, out: dict) -> None:
    """Closed loop: ``inflight`` jobs outstanding until the plan is done.

    The first job of each spec misses the cache.  Every other job reuses
    a spec whose first job has already finished, so it is a cache hit by
    construction and the hit/miss counts are exact.
    """

    from repro.pipeline.spec import RunSpec
    from repro.service import ServiceClient

    client = ServiceClient(spec["service_dir"], create=False)
    specs = [RunSpec.from_dict({"pipeline": spec["pipeline"], "input": path}) for path in spec["inputs"]]
    jobs, fresh, finished = spec["jobs"], list(range(len(specs))), []
    miss_every = max(1, jobs // len(specs))
    inflight, records, submitted = {}, [], 0
    _ready()
    first_submit = time.monotonic()
    while submitted < jobs or inflight:
        while len(inflight) < spec["inflight"] and submitted < jobs:
            if fresh and (submitted % miss_every == 0 or not finished):
                index = fresh.pop(0)
            elif finished:
                index = finished[submitted % len(finished)]
            else:
                break
            began = time.monotonic()
            job_id = client.submit(specs[index]).job_id
            inflight[job_id] = (index, began, time.monotonic() - began)
            submitted += 1
        time.sleep(spec["poll_seconds"])
        for job_id, (index, began, submit_s) in list(inflight.items()):
            record = client.status(job_id)
            if not record.is_terminal():
                continue
            del inflight[job_id]
            entry = {"job_id": job_id, "spec": index, "state": record.state, "submit_s": submit_s}
            if record.state == "done":
                fetched = time.monotonic()
                result = client.result(job_id)
                done = time.monotonic()
                entry.update(
                    latency_s=done - began,
                    result_s=done - fetched,
                    cache_hit=bool(record.cache_hit),
                    set=sorted(result.independent_set),
                    bytes_read=result.io.bytes_read,
                )
            records.append(entry)
            if index not in finished:
                finished.append(index)
    out.update(first_submit=first_submit, session_s=time.monotonic() - first_submit, jobs=records)


def run_daemon(spec: dict, out: dict) -> None:
    from repro.cli import main

    main(["serve", spec["service_dir"], "--job-workers", str(spec["job_workers"])])


MODES = {"solve": run_solve, "stream": run_stream, "client": run_client, "daemon": run_daemon}


def main(spec_path: str) -> int:
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    tracing = None
    if spec.get("trace"):
        sys.path.insert(0, HERE)
        import tracing

        recorder = tracing.RECORDER
        recorder.call("proc.import", "proc", __import__, "repro")
        tracing.install(spec["spans_dir"])
    out: dict = {"pid": os.getpid()}
    try:
        MODES[spec["mode"]](spec, out)
    finally:
        if tracing is not None:
            tracing.RECORDER.dump(os.path.join(spec["spans_dir"], f"spans-{os.getpid()}.json"))
    with open(spec["out"] + ".json", "w", encoding="utf-8") as handle:
        json.dump(out, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
