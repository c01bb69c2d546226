"""The repository benchmark: one command, five cold-process workloads.

Run from the root of a checkout::

    python3 perfbench/run.py --workload solve-plrg-2k --seed 1 --seconds 12 --trace 0

The workload seed makes the inputs; ``--seconds`` is the run length;
``--trace 0`` reports the end-to-end metrics of untraced processes,
``--trace 1`` additionally runs traced processes and reports the
per-layer metrics.  Every output is checked (see ``workloads.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print
every metric by name and unit plus the run's context.  A run with a
failed check exits 1.  A full report and, for traced runs, a Chrome
trace (Perfetto, ``repro.obs.trace.validate_trace``) are written to
``.perfbench-out/``.  ``layers.json`` says what each workload stresses
and which end-to-end metric each per-layer metric should move.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import sys
import time

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join(ROOT, ".perfbench-out")
WORK_DIR = os.path.join(ROOT, ".perfbench-work")

#: The end-to-end metric names of the issue that defined the benchmark,
#: printed next to the generic metric that carries them on each workload.
ALIASES = {
    "stream-": {"batch_p50_ms": "op_p50_ms", "batch_p90_ms": "op_p90_ms", "updates_per_s": "ops_per_s"},
    "service-": {"job_p90_ms": "op_p90_ms", "jobs_per_s": "ops_per_s"},
}


def end_to_end(run) -> dict:
    """The end-to-end metrics of the untraced processes of one run."""

    samples = run.samples
    return {
        "wall_s": (statistics.median(samples["wall_s"]), "s"),
        "setup_s": (statistics.median(samples["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(samples["rss_mb"]), "MB"),
        "is_size": (run.counters.get("is_size", 0), "vertices"),
        "op_p50_ms": (1000 * float(np.percentile(samples["op_s"], 50)), "ms"),
        "op_p90_ms": (1000 * float(np.percentile(samples["op_s"], 90)), "ms"),
        "ops_per_s": (statistics.median(samples["ops_per_s"]), "1/s"),
    }


def _p50_ms(values) -> float:
    return 1000 * statistics.median(values) if values else 0.0


def _journal_p50_ms(journals, start_events, end_events) -> float:
    """Median gap between a job's first start event and its first end event."""

    gaps = []
    for events in journals.values():
        starts = [e["ts"] for e in events if e["event"] in start_events]
        ends = [e["ts"] for e in events if e["event"] in end_events]
        if starts and ends:
            gaps.append(ends[0] - starts[0])
    return _p50_ms(gaps)


def traced_metrics(process: dict, roll: dict) -> dict:
    """Per-layer metrics of one traced process (or traced service session)."""

    import tracing

    names, counters, layers = roll["names"], roll["counters"], roll["layers"]

    def total(name):
        return names.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return names.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return names.get(name, {}).get("calls", 0)

    def p50_ms(name):
        return _p50_ms(names.get(name, {}).get("durations", []))

    rounds = counters.get("kernel.rounds", 0)
    sizes = counters.get("checkpoint.bytes", [])
    spanned = sum(layers.values())
    if "journals" in process:
        phase = process["session_s"]
        start = process["first_submit"]
    else:
        phase = process["wall_s"]
        start = process["started"]
    coverage = tracing.covered_seconds(roll["intervals"], start, start + phase)
    metrics = {
        "proc.import_s": total("proc.import"),
        "storage.open_s": total("storage.open"),
        "storage.scan_s": total("storage.scan"),
        "storage.scans": counters.get("storage.scans", 0),
        "checkpoint.write_s": total("checkpoint.write"),
        "checkpoint.writes": counters.get("checkpoint.writes", 0),
        "checkpoint.mb": statistics.mean(sizes) / 1e6 if sizes else 0.0,
        "kernel.greedy_s": total("kernel.greedy"),
        "kernel.one_k_s": total("kernel.one_k"),
        "kernel.two_k_s": total("kernel.two_k"),
        "kernel.self_s": layers["kernel"],
        "kernel.rounds": rounds,
        "kernel.swaps": counters.get("kernel.swaps", 0),
        "kernel.productive_round_frac": counters.get("kernel.productive_rounds", 0) / rounds if rounds else 0.0,
        "engine.self_s": self_s("engine.run"),
        "context.create_s": total("context.create"),
        "context.materialize_s": total("context.materialize"),
        "stream.load_updates_s": total("stream.load_updates"),
        "stream.self_s": self_s("stream.batch"),
        "dynamic.init_s": total("dynamic.init"),
        "dynamic.apply_s": total("dynamic.apply"),
        "dynamic.apply_p50_ms": p50_ms("dynamic.apply"),
        "dynamic.state_payload_s": total("dynamic.state_payload"),
        "service.submit_ms": p50_ms("service.submit"),
        "service.result_ms": p50_ms("service.result"),
        "service.cache_get_ms": p50_ms("service.cache_get"),
        "service.cache_put_ms": p50_ms("service.cache_put"),
        "service.store_writes": calls("service.store_write"),
        "service.store_write_ms": p50_ms("service.store_write"),
        "service.journal_appends": calls("obs.journal_emit"),
        "bench.span_coverage_pct": 100 * coverage / phase if phase else 0.0,
    }
    for layer in tracing.LAYERS:
        metrics[f"share.{layer}_pct"] = 100 * layers[layer] / spanned if spanned else 0.0
    if "journals" in process:
        journals = process["journals"]
        metrics["service.queue_wait_ms"] = _journal_p50_ms(journals, {"job_queued"}, {"job_running", "cache_hit"})
        metrics["service.run_ms"] = _journal_p50_ms(journals, {"job_running"}, {"job_done"})
    return metrics


def per_layer(run) -> dict:
    """Per-layer metrics: medians over the traced processes, plus exact counts.

    A metric of a layer the workload never calls is 0.
    """

    per_process = [traced_metrics(process, roll) for process, roll in run.samples["rollups"]]
    metrics = {key: statistics.median(m[key] for m in per_process) for key in per_process[0]}
    metrics.update(run.layers)
    metrics["storage.modeled_read_mb"] = run.counters.get("bytes_read", 0) / 1e6
    metrics["storage.modeled_memory_mb"] = run.counters.get("memory_bytes", 0) / 1e6
    untraced = statistics.median(run.samples["wall_s"])
    traced = statistics.median(run.samples["traced_wall_s"])
    metrics["bench.trace_overhead_pct"] = 100 * (traced - untraced) / untraced
    return metrics


def context(run) -> dict:
    return {
        "seed": run.seed,
        "affinity": len(os.sched_getaffinity(0)),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        **run.context,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"no program under test: {src}/repro is missing; run from a checkout root", file=sys.stderr)
        return 2
    sys.path[:0] = [src, HERE]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    work = os.path.join(WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    began = time.monotonic()
    try:
        run = workloads.execute(args.workload, ROOT, work, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    e2e = end_to_end(run)
    report = {
        "workload": args.workload,
        "context": context(run),
        "counters": run.counters,
        "attempted": run.attempted,
        "failed": run.failed,
        "failed_frac": run.failed / run.attempted,
        "failures": run.failures,
        "end_to_end": {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()},
        "samples": {key: run.samples[key] for key in ("wall_s", "setup_s", "rss_mb", "ops_per_s", "traced_wall_s") if key in run.samples},
        "seconds_total": time.monotonic() - began,
    }
    print(f"# {args.workload}  seed={args.seed}  context={json.dumps(report['context'], sort_keys=True)}")
    print(f"# exact counters: {json.dumps(run.counters, sort_keys=True)}")
    print(f"# samples: {len(run.samples['wall_s'])} untraced runs, {len(run.samples['op_s'])} ops")
    for name, (value, unit) in e2e.items():
        print(f"{name:<24} {value:>14.4f} {unit}")
    for prefix, aliases in ALIASES.items():
        if args.workload.startswith(prefix):
            for alias, name in aliases.items():
                print(f"{alias:<24} {e2e[name][0]:>14.4f} {e2e[name][1]} (= {name})")
    for name in ("service.job_hit_p50_ms", "service.job_miss_p50_ms"):
        if name in run.layers:
            print(f"{name.split('.')[1]:<24} {run.layers[name]:>14.4f} ms")
    print(f"{'failed_frac':<24} {report['failed_frac']:>14.4f} ratio ({run.failed}/{run.attempted})")
    if "memory_bytes" in run.counters:
        print(f"{'modeled_memory_mb':<24} {run.counters['memory_bytes'] / 1e6:>14.4f} MB (paper Table 6 model, next to peak_rss_mb)")
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in e2e.items()}
    if args.trace:
        from repro.obs.trace import validate_trace

        layer_values = per_layer(run)
        units = _layer_units()
        metrics = {name: {"value": layer_values.get(name, 0), "unit": units[name]} for name in units}
        report["per_layer"] = metrics
        document = {"traceEvents": run.events, "displayTimeUnit": "ms"}
        problems = validate_trace(document)
        if problems:
            run.fail(f"trace export: {problems[:3]}")
        os.makedirs(OUT_DIR, exist_ok=True)
        trace_path = os.path.join(OUT_DIR, f"{args.workload}-{args.seed}.trace.json")
        with open(trace_path, "w", encoding="utf-8") as handle:
            json.dump(document, handle)
        print(f"# traced: {len(run.samples['rollups'])} runs, trace written to {os.path.relpath(trace_path, ROOT)}")
        for name, entry in metrics.items():
            print(f"{name:<28} {entry['value']:>14.4f} {entry['unit']}")
    for failure in run.failures:
        print(f"FAILED: {failure}")
    os.makedirs(OUT_DIR, exist_ok=True)
    with open(os.path.join(OUT_DIR, f"{args.workload}-{args.seed}-trace{args.trace}.json"), "w", encoding="utf-8") as handle:
        json.dump(report, handle, indent=1, sort_keys=True)
    correct = run.failed == 0
    print(json.dumps({"correct": correct, "attempted": run.attempted, "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


def _layer_units() -> dict:
    with open(os.path.join(HERE, "layers.json"), encoding="utf-8") as handle:
        return {name: entry["unit"] for name, entry in json.load(handle)["per_layer"].items()}


if __name__ == "__main__":
    sys.exit(main())
