"""Benchmark of the reproduction pipeline and the serving stack.

Run one workload from the root of a checkout::

    python3 perfbench/run.py --workload serve_cold --seed 7 --seconds 25 --trace 0

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics of a separate traced run with
``--trace 1``.  The line before it records the environment and knobs.

Check how steady the figures are (each workload N times, alternating,
with a new seed each round)::

    python3 perfbench/run.py --steady 10 --seconds 25

See README.md in this directory for the workloads, metrics and reference
figures.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

WORKLOADS = ("reproduce", "serve_cold", "serve_hot")
#: How often the imports are timed: once in this process and the rest in
#: fresh interpreters, half at the start of a run and half at its end.
#: ``setup_s`` counts their median.  Timings taken within seconds of each
#: other share one stretch of the box's speed, which can move by a third or
#: more from one stretch to the next; with an even count split this way,
#: the median lies between the two stretches when they differ.
IMPORT_REPEATS = 8

#: End-to-end metrics (every workload reports every one) and their units.
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "pipeline_s": "s",
    "graphs_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
}

#: Per-layer metrics of the traced run.  A layer a workload does not reach
#: reads 0 on it.
PER_LAYER = {
    "suite.s": "s",
    "label.s": "s",
    "label.simulations": "count",
    "label.us_per_simulation": "us",
    "label_space.s": "s",
    "augment.passes_s": "s",
    "augment.extract_s": "s",
    "augment.variants": "count",
    "graphs.build_s": "s",
    "graphs.encode_s": "s",
    "graphs.nodes": "count",
    "graphs.edges": "count",
    "train.s": "s",
    "train.forward_s": "s",
    "train.backward_s": "s",
    "train.graph_epochs": "count",
    "train.us_per_graph_epoch": "us",
    "eval.flag_select_s": "s",
    "eval.predict_s": "s",
    "eval.dynamic_s": "s",
    "eval.hybrid_s": "s",
    "wire.json_s": "s",
    "wire.decode_s": "s",
    "wire.decode_us_per_node": "us",
    "fingerprint.s": "s",
    "cache.lookups": "count",
    "cache.hit_ratio": "ratio",
    "cache.evictions": "count",
    "batch.collate_s": "s",
    "plan.s": "s",
    "infer.s": "s",
    "infer.graphs": "count",
    "infer.us_per_graph": "us",
    "batch.mean_size": "count",
    "queue.p50_ms": "ms",
    "pool.supervisor_cpu_ms_per_request": "ms",
    "pool.worker_cpu_ms_per_request": "ms",
    "pool.pipe_bytes_per_request": "bytes",
    "respond.s": "s",
    "trace.wall_s": "s",
    "trace.overhead_pct": "%",
    "trace.coverage": "ratio",
}


class Context:
    """What a workload needs to know about this run."""

    def __init__(self, work_dir: str, workload: str, seed: int):
        self.src_dir = SRC
        self.work_dir = work_dir
        #: spans of a traced run are written here when it ends
        self.trace_path = os.path.join(WORK, f"trace-{workload}-seed{seed}.jsonl")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--steady", type=int, metavar="N",
        help="run every workload N times, alternating, and report the spread",
    )
    parser.add_argument(
        "--first-seed", type=int, default=100,
        help="seed of the first --steady round (round i uses first-seed + i)",
    )
    args = parser.parse_args(argv)
    if args.steady is None and args.workload is None:
        parser.error("--workload is required (or --steady N)")
    return args


def fresh_import_seconds(module_name: str) -> float:
    """Seconds a fresh interpreter takes for the imports this script makes
    before a workload's set-up, measured as this script measures its own."""
    code = (
        "import time\n"
        "began = time.perf_counter()\n"
        "import argparse, json, os, shutil, statistics, subprocess, sys, traceback\n"
        f"sys.path[:0] = {[SRC, HERE]!r}\n"
        f"import harness, {module_name}\n"
        "print(time.perf_counter() - began)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return float(completed.stdout.split()[-1])


def run_workload(args) -> int:
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        print(f"error: no program source under {SRC}", file=sys.stderr)
        return 2
    work_dir = os.path.join(WORK, f"run-{os.getpid()}")
    os.makedirs(work_dir)
    # Temporary files of this process and its children stay in the checkout.
    os.environ["TMPDIR"] = work_dir
    # Before numpy is imported: one BLAS thread, so the load stays within
    # the cores the reference figures were taken on.
    sys.path[:0] = [SRC, HERE]
    import harness

    for var in harness.BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        if args.workload == "reproduce":
            import reproduce as module

            knobs = module.knobs()
        else:
            import serve as module

            knobs = module.knobs(args.workload)
        import_times = [time.perf_counter() - STARTED]
        timed = not args.trace  # a traced run reports no setup_s
        if timed:
            import_times += [
                fresh_import_seconds(module.__name__) for _ in range(IMPORT_REPEATS // 2 - 1)
            ]
        ctx = Context(work_dir, args.workload, args.seed)
        runner = module.run_timed if timed else module.run_traced
        result = runner(args.workload, args.seed, args.seconds, ctx)
        if timed:
            import_times += [
                fresh_import_seconds(module.__name__) for _ in range(IMPORT_REPEATS // 2)
            ]
            # The workload reports its set-up steps; the imports precede them.
            result["metrics"]["setup_s"] += statistics.median(import_times)
    finally:
        harness.stop_helper_processes()
        shutil.rmtree(work_dir, ignore_errors=True)
    names = PER_LAYER if args.trace else END_TO_END
    values = result["metrics"]
    unknown = set(values) - set(names)
    if unknown:
        raise KeyError(f"metrics missing from the declared list: {sorted(unknown)}")
    metrics = {name: harness.metric(values.get(name, 0.0), unit) for name, unit in names.items()}
    print(json.dumps({
        "environment": harness.environment_record(ROOT, args.seed, knobs),
        "workload": args.workload,
        "trace": args.trace,
        "info": {**result.get("info", {}), "import_s": import_times},
    }))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": int(result["attempted"]),
        "failed": int(result["failed"]),
        "metrics": metrics,
    }))
    return 0


# ------------------------------------------------------------ steadiness
def steady(args) -> int:
    """Run each workload ``args.steady`` times, alternating workloads, and
    print each end-to-end metric's median, quartiles and spreads next to
    its bound from BENCHMARK.json."""
    bounds = {}
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if os.path.isfile(spec_path):
        with open(spec_path) as handle:
            bounds = {m["name"]: m["bound"] for m in json.load(handle)["end_to_end"]}
    runs = {w: [] for w in WORKLOADS}
    for round_index in range(args.steady):
        seed = args.first_seed + round_index
        for workload in WORKLOADS:
            command = [sys.executable, os.path.abspath(__file__), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            began = time.perf_counter()
            completed = subprocess.run(command, cwd=ROOT, capture_output=True, text=True)
            if completed.returncode != 0:
                sys.stderr.write(completed.stderr)
                print(f"{workload} seed {seed}: exit code {completed.returncode}")
                return 1
            result = json.loads(completed.stdout.strip().splitlines()[-1])
            runs[workload].append(result)
            print(f"{workload} seed {seed}: {time.perf_counter() - began:.1f} s wall, "
                  + ", ".join(f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()),
                  flush=True)
    summary = {}
    for workload, results in runs.items():
        print(f"\n{workload}: {len(results)} runs")
        print(f"  {'metric':<16} {'median':>10} {'q1':>10} {'q3':>10} "
              f"{'iqr/med':>8} {'range/med':>9} {'bound':>6}")
        summary[workload] = {}
        for name in END_TO_END:
            values = [r["metrics"][name]["value"] for r in results]
            q1, q2, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
            iqr = (q3 - q1) / q2 if q2 else float("nan")
            spread = (max(values) - min(values)) / q2 if q2 else float("nan")
            bound = bounds.get(name, float("nan"))
            print(f"  {name:<16} {q2:>10.4g} {q1:>10.4g} {q3:>10.4g} "
                  f"{iqr:>8.3f} {spread:>9.3f} {bound:>6}")
            summary[workload][name] = {
                "median": q2, "q1": q1, "q3": q3, "iqr_share": iqr,
                "range_share": spread, "bound": bound, "values": values,
            }
        failed = [r["failed"] / r["attempted"] for r in results]
        print(f"  failed share per run: {sorted(set(failed))}; "
              f"correct in every run: {all(r['correct'] for r in results)}")
    print(json.dumps({"steady": summary}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.steady is not None:
        return steady(args)
    try:
        return run_workload(args)
    except Exception:
        traceback.print_exc()
        return 1


if __name__ == "__main__":
    sys.exit(main())
