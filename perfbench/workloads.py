"""The five benchmark workloads.

Each workload generates its inputs from the seed, computes its reference
outputs once (untimed), then launches fresh processes under test until
the run length is used up.  Every process is timed from outside: launch,
its ``ready`` line, and its exit (``os.wait4``, which also gives the peak
resident set of the process and of every child it reaped).  Every output
is checked; a wrong, missing or requeued result is a failure.

With tracing on, untraced and traced processes alternate, so the traced
numbers and the tracing overhead come from the same run.
"""

from __future__ import annotations

import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

import inputs
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")

#: Fewest untraced processes per run, whatever the run length.
MIN_RUNS = 2
#: Daemon launches per service run (``setup_s`` is their median).
SERVICE_SETUPS = 3
#: Seconds a process under test may take before the run is abandoned.
PROCESS_TIMEOUT = 150.0


@dataclass(frozen=True)
class Solve:
    model: str  # "plrg" or "gnm"
    n: int
    m: int  # gnm only
    binary: bool  # convert the text file to a SEXTCSR1 memmap artifact
    pipeline: str
    max_rounds: int  # the fewest rounds any seed needs: every seed does the same passes
    checkpoint: bool


@dataclass(frozen=True)
class Stream:
    n: int
    updates: int
    insert_fraction: float
    batch_size: int
    checkpoint: bool
    cli_parity: bool


@dataclass(frozen=True)
class Service:
    graphs: int
    n: int
    m: int
    jobs: int
    inflight: int
    job_workers: int


WORKLOADS = {
    "solve-plrg-2k": Solve("plrg", 300_000, 0, True, "two_k_swap", 2, False),
    "solve-gnm-text-1k": Solve("gnm", 100_000, 400_000, False, "one_k_swap", 5, True),
    "stream-plrg-mem": Stream(100_000, 102_400, 0.7, 1024, False, True),
    "stream-plrg-durable": Stream(10_000, 26_000, 0.7, 256, True, False),
    "service-mix": Service(20, 2_000, 8_000, 100, 2, 2),
}


class Run:
    """Everything one benchmark invocation measured and checked."""

    def __init__(self, root: str, work: str, seed: int, trace: bool) -> None:
        self.root = root
        self.work = work
        self.seed = seed
        self.trace = trace
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.samples: Dict[str, list] = {}
        self.counters: Dict[str, object] = {}
        self.context: Dict[str, object] = {}
        self.layers: Dict[str, float] = {}
        self.events: List[dict] = []
        self._tag = 0

    def fail(self, message: str, count: int = 1) -> None:
        self.failures.append(message)
        self.failed += count

    def sample(self, key: str, value) -> None:
        self.samples.setdefault(key, []).append(value)

    def expect_counters(self, counters: Dict[str, object], what: str) -> None:
        """Exact program counters must repeat on every run of the same input."""

        for key, value in counters.items():
            seen = self.counters.setdefault(key, value)
            if seen != value:
                self.fail(f"{what}: counter {key} is {value}, earlier runs had {seen}")
                return

    def env(self) -> Dict[str, str]:
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
        return env

    def next_tag(self, prefix: str) -> str:
        self._tag += 1
        return os.path.join(self.work, f"{prefix}{self._tag}")

    # ------------------------------------------------------------------
    # Process launching
    # ------------------------------------------------------------------
    def launch(self, spec: dict, traced: bool) -> dict:
        """Run one child to completion, timed from outside."""

        tag = self.next_tag(spec["mode"])
        spec = dict(spec, out=tag, trace=traced, spans_dir=tag + ".spans")
        if traced:
            os.makedirs(spec["spans_dir"])
        with open(tag + ".spec.json", "w", encoding="utf-8") as handle:
            json.dump(spec, handle)
        with open(tag + ".err", "w", encoding="utf-8") as err:
            started = time.monotonic()
            proc = subprocess.Popen(
                [sys.executable, CHILD, tag + ".spec.json"],
                stdout=subprocess.PIPE,
                stderr=err,
                env=self.env(),
                cwd=self.root,
                text=True,
            )
            try:
                line = proc.stdout.readline()
                ready = time.monotonic()
                status, rusage = _wait(proc, started + PROCESS_TIMEOUT)
                ended = time.monotonic()
            finally:
                _reap(proc)
        result = {"wall_s": ended - started, "setup_s": ready - started,
                  "work_s": ended - ready, "rss_mb": rusage.ru_maxrss / 1024.0,
                  "started": started, "ended": ended, "spans_dir": spec["spans_dir"]}
        if status != 0 or line.strip() != "ready":
            with open(tag + ".err", encoding="utf-8") as handle:
                tail = handle.read()[-2000:]
            raise RuntimeError(f"{spec['mode']} process exited with {status}: {tail}")
        with open(tag + ".json", encoding="utf-8") as handle:
            result.update(json.load(handle))
        if os.path.exists(tag + ".npy"):
            result["set"] = np.sort(np.load(tag + ".npy"))
        return result

    def cli(self, args: List[str]) -> str:
        """Run ``repro-mis`` (as ``python -m repro``) and return its stdout."""

        done = subprocess.run(
            [sys.executable, "-m", "repro", *args],
            capture_output=True,
            text=True,
            env=self.env(),
            cwd=self.root,
            timeout=PROCESS_TIMEOUT,
        )
        if done.returncode != 0:
            raise RuntimeError(f"repro-mis {args[0]} exited with {done.returncode}: {done.stderr[-2000:]}")
        return done.stdout


def _wait(proc: subprocess.Popen, deadline: float):
    """Block in ``os.wait4`` (killing the child at the deadline): exit status, rusage."""

    watchdog = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        _, status, rusage = os.wait4(proc.pid, 0)
    finally:
        watchdog.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if time.monotonic() >= deadline:
        raise RuntimeError(f"process {proc.pid} timed out")
    return proc.returncode, rusage


def _reap(proc: subprocess.Popen) -> None:
    if proc.returncode is None:
        proc.kill()
        proc.wait()
    for stream in (proc.stdout, proc.stderr):
        if stream is not None:
            stream.close()


def _alternate(run: Run, seconds: float, launch_one) -> None:
    """Launch processes until the run length is used (untraced/traced alternate)."""

    deadline = time.monotonic() + seconds
    durations: List[float] = []
    launched = {False: 0, True: 0}
    while True:
        enough = launched[False] >= MIN_RUNS and (not run.trace or launched[True] >= 2)
        # Stop when the next process would end past the run length.
        if enough and time.monotonic() + statistics.median(durations) > deadline:
            return
        traced = run.trace and len(durations) % 2 == 1
        began = time.monotonic()
        launch_one(traced)
        durations.append(time.monotonic() - began)
        launched[traced] += 1


def _record_process(run: Run, result: dict, traced: bool) -> None:
    prefix = "traced_" if traced else ""
    run.sample(prefix + "wall_s", result["wall_s"])
    if traced:
        documents = tracing.load_spans(result["spans_dir"])
        roll = tracing.rollup(documents)
        counts = roll["counters"]
        run.expect_counters(
            {f"traced.{key}": counts.get(key, 0) for key in ("checkpoint.writes", "storage.scans", "kernel.rounds")},
            "traced run",
        )
        run.sample("rollups", (result, roll))
        run.events.extend(
            tracing.chrome_events(documents, result["started"], f"traced run {len(run.samples['rollups'])}")
        )
        return
    run.sample("setup_s", result["setup_s"])
    run.sample("rss_mb", result["rss_mb"])


# ----------------------------------------------------------------------
# solve-*
# ----------------------------------------------------------------------
def run_solve(run: Run, cfg: Solve, seconds: float) -> None:
    rng = np.random.default_rng(run.seed)
    graph = (
        inputs.plrg(cfg.n, run.seed)
        if cfg.model == "plrg"
        else inputs.gnm_graph(cfg.n, cfg.m, rng)
    )
    path = inputs.write_text(graph, os.path.join(run.work, "graph.adj"))
    if cfg.binary:
        from repro.storage.converters import adjacency_to_binary

        began = time.monotonic()
        adjacency_to_binary(path, os.path.join(run.work, "graph.csr"))
        run.layers["storage.convert_s"] = time.monotonic() - began
        path = os.path.join(run.work, "graph.csr")
    run.context["graph"] = inputs.profile(graph)
    u, v = inputs.edge_arrays(graph)

    # Reference and CLI parity: `repro-mis solve --json`, final set read
    # back from its checkpoint, computed once before any timing.
    from repro.storage.checkpoint import read_checkpoint

    cli_checkpoint = os.path.join(run.work, "cli.ckpt")
    run.attempted += 1
    summary = json.loads(
        run.cli(["solve", path, "--pipeline", cfg.pipeline, "--max-rounds", str(cfg.max_rounds),
                 "--json", "--no-obs", "--checkpoint", cli_checkpoint])
    )
    reference = np.sort(
        np.asarray(read_checkpoint(cli_checkpoint)["completed"][-1]["result"]["independent_set"], dtype=np.int64)
    )
    problem = inputs.check_mis(graph.num_vertices, u, v, reference)
    if problem:
        run.fail(f"repro-mis solve result: {problem}")
    elif reference.size != summary["size"]:
        run.fail("repro-mis solve: checkpointed set and --json size disagree")
    run.counters.update(
        is_size=summary["size"],
        rounds=summary["rounds"],
        sequential_scans=summary["sequential_scans"],
        random_vertex_lookups=summary["random_vertex_lookups"],
        memory_bytes=summary["memory_bytes"],
    )

    spec = {"mode": "solve", "input": path, "pipeline": cfg.pipeline, "max_rounds": cfg.max_rounds}
    if cfg.checkpoint:
        spec["checkpoint"] = os.path.join(run.work, "run.ckpt")

    def launch_one(traced: bool) -> None:
        run.attempted += 1
        result = run.launch(spec, traced)
        _record_process(run, result, traced)
        if not traced:
            run.samples.setdefault("op_s", []).extend(result["passes"])
            run.sample("ops_per_s", len(result["passes"]) / result["work_s"])
        if not np.array_equal(result["set"], reference):
            run.fail("solve set differs from the reference (repro-mis solve)")
            return
        run.expect_counters(
            {key: result[key] for key in ("is_size", "rounds", "sequential_scans", "random_vertex_lookups",
                                          "memory_bytes", "swaps", "bytes_read")},
            "solve",
        )

    _alternate(run, seconds, launch_one)


# ----------------------------------------------------------------------
# stream-*
# ----------------------------------------------------------------------
def run_stream(run: Run, cfg: Stream, seconds: float) -> None:
    from repro.storage.converters import adjacency_to_binary
    from repro.storage.checkpoint import read_checkpoint

    rng = np.random.default_rng(run.seed)
    graph = inputs.plrg(cfg.n, run.seed)
    text = inputs.write_text(graph, os.path.join(run.work, "graph.adj"))
    path = os.path.join(run.work, "graph.csr")
    began = time.monotonic()
    adjacency_to_binary(text, path)
    run.layers["storage.convert_s"] = time.monotonic() - began
    updates = inputs.update_stream(graph, cfg.updates, cfg.insert_fraction, rng)
    updates_path = inputs.write_updates(updates, os.path.join(run.work, "updates.txt"))
    u, v = inputs.final_edges(graph, updates, cfg.batch_size)
    total_batches = -(-len(updates) // cfg.batch_size)
    run.context["graph"] = inputs.profile(graph)
    run.context["stream"] = {"updates": len(updates), "batch_size": cfg.batch_size, "batches": total_batches}

    reference: Optional[np.ndarray] = None
    if cfg.cli_parity:
        run.attempted += total_batches
        summary = json.loads(
            run.cli(["watch", path, "--updates", updates_path, "--batch-size", str(cfg.batch_size), "--json", "--quiet", "--no-obs"])
        )
        reference = np.asarray(summary["independent_set"], dtype=np.int64)
        problem = inputs.check_mis(graph.num_vertices, u, v, reference)
        if problem:
            run.fail(f"repro-mis watch result: {problem}", total_batches)

    spec = {"mode": "stream", "input": path, "updates": updates_path,
            "pipeline": "two_k_swap", "batch_size": cfg.batch_size}
    if cfg.checkpoint:
        spec["checkpoint"] = os.path.join(run.work, "stream.ckpt")

    def launch_one(traced: bool) -> None:
        nonlocal reference
        run.attempted += total_batches
        result = run.launch(spec, traced)
        _record_process(run, result, traced)
        if not traced:
            run.samples.setdefault("op_s", []).extend(result["batches"])
            run.sample("ops_per_s", len(updates) / sum(result["batches"]))
        final = result["set"]
        problem = inputs.check_mis(graph.num_vertices, u, v, final)
        if problem or result["num_edges"] != u.size or len(result["batches"]) != total_batches:
            run.fail(f"stream result on the final graph: {problem or 'wrong edge or batch count'}", total_batches)
            return
        if reference is None:
            reference = final
        elif not np.array_equal(final, reference):
            run.fail("stream set differs from the reference", total_batches)
            return
        if cfg.checkpoint:
            payload = read_checkpoint(spec["checkpoint"])
            if payload["cursor"] != total_batches or not np.array_equal(
                np.sort(np.asarray(payload["state"]["selected"], dtype=np.int64)), final
            ):
                run.fail("final stream checkpoint does not hold the final state", total_batches)
                return
        run.expect_counters(
            {"is_size": result["is_size"], "evictions": result["evictions"], "bytes_read": result["bytes_read"]},
            "stream",
        )
        if not traced:
            run.layers.update({
                "dynamic.evictions": result["evictions"],
                "dynamic.conflict_density": result["conflict_density"],
                "dynamic.sub_waves": result["sub_waves"],
                "dynamic.scalar_fallback_frac": result["scalar_fallbacks"] / len(updates),
            })

    _alternate(run, seconds, launch_one)


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------
class Daemon:
    """A ``repro-mis serve`` process, timed until its ``serving`` line."""

    def __init__(self, run: Run, service_dir: str, workers: int, traced: bool) -> None:
        if traced:
            tag = run.next_tag("daemon")
            self.spans_dir = tag + ".spans"
            os.makedirs(self.spans_dir)
            spec = {"mode": "daemon", "service_dir": service_dir, "job_workers": workers,
                    "out": tag, "trace": True, "spans_dir": self.spans_dir}
            with open(tag + ".spec.json", "w", encoding="utf-8") as handle:
                json.dump(spec, handle)
            argv = [sys.executable, CHILD, tag + ".spec.json"]
        else:
            self.spans_dir = None
            argv = [sys.executable, "-m", "repro", "serve", service_dir, "--job-workers", str(workers)]
        self.started = time.monotonic()
        # Its own process group, so no forked worker can outlive stop().
        self.proc = subprocess.Popen(
            argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=run.env(),
            cwd=run.root, text=True, start_new_session=True,
        )
        line = self.proc.stderr.readline()
        self.ready = time.monotonic()
        if not line.startswith("serving"):
            self.stop()
            raise RuntimeError(f"service daemon did not start: {line}")
        # Keep the pipe drained so the daemon never blocks on stderr.
        threading.Thread(target=self.proc.stderr.read, daemon=True).start()

    def stop(self) -> float:
        """Stop the daemon (SIGINT, as Ctrl-C); returns its peak RSS in MB."""

        rss = 0.0
        if self.proc.returncode is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                _, rusage = _wait(self.proc, time.monotonic() + 30)
                rss = rusage.ru_maxrss / 1024.0
            finally:
                _reap(self.proc)
                try:
                    os.killpg(self.proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        return rss


def _journal_events(service_dir: str) -> Dict[str, List[dict]]:
    from repro.obs.journal import read_journal
    from repro.service.jobstore import JobStore

    store = JobStore(service_dir, create=False)
    return {record.job_id: read_journal(store.journal_path(record.job_id)) for record in store.list()}


def _service_session(run: Run, cfg: Service, paths: List[str], traced: bool):
    """One daemon plus one closed-loop client over a fresh service directory."""

    service_dir = run.next_tag("service")
    daemon = Daemon(run, service_dir, cfg.job_workers, traced)
    try:
        client = run.launch(
            {"mode": "client", "service_dir": service_dir, "inputs": paths, "pipeline": "two_k_swap",
             "jobs": cfg.jobs, "inflight": cfg.inflight, "poll_seconds": 0.005},
            traced,
        )
    finally:
        daemon_rss = daemon.stop()
    return daemon, client, daemon_rss, _journal_events(service_dir)


def run_service(run: Run, cfg: Service, seconds: float) -> None:
    from repro.core.solver import PIPELINES
    from repro.pipeline.context import ExecutionContext
    from repro.pipeline.engine import PipelineEngine
    from repro.storage.registry import open_adjacency_source

    rng = np.random.default_rng(run.seed)
    paths, references, edges = [], [], []
    for index in range(cfg.graphs):
        graph = inputs.gnm_graph(cfg.n, cfg.m, rng)
        paths.append(inputs.write_text(graph, os.path.join(run.work, f"graph{index}.adj")))
        edges.append(inputs.edge_arrays(graph))
        # Reference: a direct library solve of the same spec.
        reader = open_adjacency_source(paths[-1])
        try:
            result = PipelineEngine(PIPELINES["two_k_swap"]).run(ExecutionContext.create(reader))
        finally:
            reader.close()
        references.append(np.sort(np.fromiter(result.independent_set, dtype=np.int64)))
        if index == 0:
            run.context["graph"] = inputs.profile(graph)
    run.context["service"] = {"graphs": cfg.graphs, "jobs": cfg.jobs, "inflight": cfg.inflight,
                              "job_workers": cfg.job_workers}
    run.counters["is_size"] = int(sum(ref.size for ref in references))

    for _ in range(SERVICE_SETUPS - 1):
        daemon = Daemon(run, run.next_tag("setup"), cfg.job_workers, False)
        run.sample("setup_s", daemon.ready - daemon.started)
        daemon.stop()

    for traced in ([False, True] if run.trace else [False]):
        daemon, client, daemon_rss, journals = _service_session(run, cfg, paths, traced)
        run.attempted += cfg.jobs
        requeues = sum(e["event"] == "job_requeued" for events in journals.values() for e in events)
        if requeues:
            run.fail(f"{requeues} service jobs were requeued", requeues)
        jobs = client["jobs"]
        for job in jobs:
            if job["state"] != "done":
                run.fail(f"service job {job['job_id']} ended {job['state']}")
                continue
            chosen = np.asarray(job["set"], dtype=np.int64)
            problem = inputs.check_mis(cfg.n, *edges[job["spec"]], chosen)
            if problem or not np.array_equal(chosen, references[job["spec"]]):
                run.fail(f"service job {job['job_id']}: {problem or 'differs from a direct solve'}")
        missing = cfg.jobs - len(jobs)
        if missing:
            run.fail(f"{missing} service jobs never finished", missing)
        done = [job for job in jobs if job["state"] == "done"]
        hits = sum(job["cache_hit"] for job in done)
        run.expect_counters({"cache_hits": hits, "jobs_done": len(done)}, "service")
        if traced:
            documents = tracing.load_spans(daemon.spans_dir) + tracing.load_spans(client["spans_dir"])
            run.sample("traced_wall_s", client["session_s"])
            run.sample("rollups", ({**client, "journals": journals}, tracing.rollup(documents)))
            run.events.extend(tracing.chrome_events(documents, daemon.started, "service-mix traced session"))
            continue
        run.sample("setup_s", daemon.ready - daemon.started)
        run.sample("wall_s", client["session_s"])
        run.sample("rss_mb", max(daemon_rss, client["rss_mb"]))
        run.sample("ops_per_s", len(done) / client["session_s"])
        run.samples["op_s"] = [job["latency_s"] for job in done]
        hit_s = [job["latency_s"] for job in done if job["cache_hit"]]
        miss_s = [job["latency_s"] for job in done if not job["cache_hit"]]
        run.layers.update({
            "service.requeues": requeues,
            "service.cache_hit_ratio": hits / cfg.jobs,
            "service.job_hit_p50_ms": 1000 * statistics.median(hit_s) if hit_s else 0.0,
            "service.job_miss_p50_ms": 1000 * statistics.median(miss_s) if miss_s else 0.0,
        })


RUNNERS = {Solve: run_solve, Stream: run_stream, Service: run_service}


def execute(name: str, root: str, work: str, seed: int, seconds: float, trace: bool) -> Run:
    run = Run(root, work, seed, trace)
    cfg = WORKLOADS[name]
    RUNNERS[type(cfg)](run, cfg, seconds)
    return run
