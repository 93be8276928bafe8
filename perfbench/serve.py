"""The serve_cold and serve_hot workloads.

Timed runs drive a real ``repro-serve`` subprocess over one keep-alive HTTP
connection in a closed loop.  Traced runs replay the same request
sequence in-process, through ``ServingApp.handle``, with spans wrapped
around the program's public entry points.
"""

from __future__ import annotations

import http.client
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

import numpy as np

import harness
import inputs
from harness import check

#: ``repro-serve`` arguments per workload, after the registry root, the
#: port and the cache capacity.
SERVER_ARGS = {
    "serve_cold": ["--model", f"ens=ensemble:{inputs.ENSEMBLE_BASE}"],
    "serve_hot": ["--name", f"{inputs.ENSEMBLE_BASE}-fold0", "--replicas", "2"],
}
CACHE_CAPACITY = {
    "serve_cold": inputs.COLD_CACHE_CAPACITY,
    "serve_hot": inputs.HOT_CACHE_CAPACITY,
}
#: Untimed requests before the window opens (for serve_cold, one round).
WARMUP_REQUESTS = {"serve_cold": 20, "serve_hot": 200}
SETUP_REPEATS = 3
STARTUP_TIMEOUT_S = 60.0
STOP_TIMEOUT_S = 20.0


def knobs(workload: str) -> Dict[str, object]:
    return {
        "flag_sequences": inputs.SERVE_SEQUENCES,
        "ensemble_folds": inputs.ENSEMBLE_FOLDS if workload == "serve_cold" else 1,
        "cache_capacity": CACHE_CAPACITY[workload],
        "batch_graphs": inputs.BATCH_GRAPHS if workload == "serve_cold" else 1,
        "zipf_exponent": inputs.ZIPF_EXPONENT if workload == "serve_hot" else None,
        "server_args": SERVER_ARGS[workload],
    }


# ----------------------------------------------------------------- requests
class Requests:
    """The seeded request sequence of one workload."""

    def __init__(self, workload: str, variants: List[inputs.Variant], seed: int):
        if workload == "serve_cold":
            pairs = inputs.cold_bodies(variants)
            self.bodies = [body for body, _ in pairs]
            self.members = [members for _, members in pairs]
            self.order = list(range(len(self.bodies)))
        else:
            self.bodies = inputs.hot_bodies(variants)
            self.members = [[i] for i in range(len(variants))]
            self.order = inputs.zipf_sequence(len(variants), seed)

    def body_at(self, position: int) -> int:
        """Body index of the ``position``-th request (the order is cycled)."""
        return self.order[position % len(self.order)]


def graphs_in(requests: Requests, body_index: int) -> int:
    return len(requests.members[body_index])


# ------------------------------------------------------------------ server
def _default_sigint() -> None:
    signal.signal(signal.SIGINT, signal.SIG_DFL)


class Server:
    """One ``repro-serve`` subprocess."""

    def __init__(self, workload: str, registry_root: str, src_dir: str, log_path: str):
        command = [
            sys.executable, "-m", "repro.serving",
            "--root", registry_root,
            "--port", "0",
            "--cache-capacity", str(CACHE_CAPACITY[workload]),
        ] + SERVER_ARGS[workload]
        env = dict(os.environ)
        env["PYTHONPATH"] = src_dir
        self._log = open(log_path, "ab")
        self.process = subprocess.Popen(
            command,
            stdout=subprocess.PIPE,
            stderr=self._log,
            env=env,
            start_new_session=True,
            # A shell starts background jobs with SIGINT ignored, and the
            # child would inherit that; stop() relies on SIGINT for a
            # graceful close.
            preexec_fn=_default_sigint,
        )
        self.pid = self.process.pid
        self.port: Optional[int] = None

    def wait_ready(self) -> None:
        """Read the announced port, then poll ``/healthz`` until it is 200."""
        deadline = time.monotonic() + STARTUP_TIMEOUT_S
        selector = selectors.DefaultSelector()
        selector.register(self.process.stdout, selectors.EVENT_READ)
        line = b""
        try:
            while not line.endswith(b"\n"):
                remaining = deadline - time.monotonic()
                if remaining <= 0 or self.process.poll() is not None:
                    raise RuntimeError("repro-serve did not announce its port")
                if selector.select(timeout=remaining):
                    chunk = os.read(self.process.stdout.fileno(), 4096)
                    if not chunk:
                        raise RuntimeError("repro-serve closed its stdout")
                    line += chunk
        finally:
            selector.close()
        self.port = int(line.decode().strip().rsplit(":", 1)[1])
        while True:
            try:
                connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
                connection.request("GET", "/healthz")
                response = connection.getresponse()
                response.read()
                connection.close()
                if response.status == 200:
                    return
            except OSError:
                pass
            if time.monotonic() > deadline or self.process.poll() is not None:
                raise RuntimeError("repro-serve never answered /healthz with 200")
            time.sleep(0.01)

    def get_json(self, path: str) -> Dict[str, object]:
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request("GET", path)
            response = connection.getresponse()
            return json.loads(response.read())
        finally:
            connection.close()

    def worker_pids(self) -> List[int]:
        replicas = (self.get_json("/metrics").get("hub") or {}).get("replicas") or {}
        return [int(entry["pid"]) for entry in replicas.values()]

    def stop(self) -> None:
        """SIGINT (graceful close), then SIGKILL the whole session if it
        lingers; returns once every process of the session has ended."""
        family = [self.pid] + harness.descendant_pids(self.pid)
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(self.pid, signal.SIGKILL)
                self.process.wait()
        deadline = time.monotonic() + STOP_TIMEOUT_S
        while any(harness.pid_alive(p) for p in family[1:]):
            if time.monotonic() > deadline:
                for pid in family[1:]:
                    try:
                        os.kill(pid, signal.SIGKILL)
                    except ProcessLookupError:
                        pass
                deadline = time.monotonic() + STOP_TIMEOUT_S
            time.sleep(0.02)
        self.process.stdout.close()
        self._log.close()


# ------------------------------------------------------------- the client
class Exchange:
    __slots__ = ("body_index", "status", "payload", "latency_s", "ended", "timed")

    def __init__(self, body_index, status, payload, latency_s, ended):
        self.body_index = body_index
        self.status = status
        self.payload = payload
        self.latency_s = latency_s
        self.ended = ended
        self.timed = False


def _exchange(connection, requests, body_index):
    """One request; a transport error is a failed exchange (status None)."""
    began = time.perf_counter()
    try:
        connection.request(
            "POST", "/v1/predict", requests.bodies[body_index],
            {"Content-Type": "application/json"},
        )
        response = connection.getresponse()
        payload = response.read()
        status = response.status
    except (OSError, http.client.HTTPException):
        connection.close()
        status, payload = None, b""
    ended = time.perf_counter()
    return Exchange(body_index, status, payload, ended - began, ended)


def drive(workload: str, port: int, requests: Requests, seconds: float):
    """Warm up, then run the closed loop on one keep-alive connection for
    ``seconds``; returns every exchange and the window's start."""
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=60)
    exchanges: List[Exchange] = []
    try:
        for position in range(WARMUP_REQUESTS[workload]):
            exchanges.append(_exchange(connection, requests, requests.body_at(position)))
        position = WARMUP_REQUESTS[workload]
        window_start = time.perf_counter()
        deadline = window_start + seconds
        while time.perf_counter() < deadline:
            exchange = _exchange(connection, requests, requests.body_at(position))
            # A reply that lands after the window closed is checked but
            # not counted in the window's figures.
            exchange.timed = exchange.ended <= deadline
            exchanges.append(exchange)
            position += 1
    finally:
        connection.close()
    return exchanges, window_start


def round_times(requests, timed, window_start) -> List[float]:
    """Wall time of each complete round over the variant set inside the
    window: the time from one round's last reply to the next one's."""
    round_graphs = sum(len(members) for members in requests.members)
    times = []
    previous = window_start
    answered = 0
    for exchange in timed:
        answered += len(requests.members[exchange.body_index])
        if answered >= round_graphs:
            times.append(exchange.ended - previous)
            previous = exchange.ended
            answered -= round_graphs
    return times


# ------------------------------------------------------------------ set-up
class Setup:
    """Inputs, registry and (for timed runs) a healthy server."""

    def __init__(self, workload: str, seed: int, work_dir: str, src_dir: str,
                 attempt: int, with_server: bool):
        self.variants = inputs.build_variants(seed)
        self.requests = Requests(workload, self.variants, seed)
        self.registry_root = inputs.registry_dir(work_dir, attempt)
        names = inputs.write_registry(self.registry_root, seed)
        # serve_hot deploys fold 0 alone; serve_cold the whole ensemble.
        self.model_names = names if workload == "serve_cold" else names[:1]
        self.server: Optional[Server] = None
        if with_server:
            self.server = Server(
                workload, self.registry_root, src_dir,
                os.path.join(work_dir, f"server-{attempt}.log"),
            )
            try:
                self.server.wait_ready()
            except BaseException:
                self.server.stop()
                raise

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None
        shutil.rmtree(self.registry_root, ignore_errors=True)


def set_up(workload, seed, ctx, with_server):
    """SETUP_REPEATS full set-ups; returns the median time (run.py adds
    the imports) and the last."""
    times = []
    state = None
    for attempt in range(SETUP_REPEATS):
        if state is not None:
            state.close()
        began = time.perf_counter()
        state = Setup(workload, seed, ctx.work_dir, ctx.src_dir, attempt, with_server)
        times.append(time.perf_counter() - began)
    return statistics.median(times), state


# ------------------------------------------------------------------ checks
def check_exchanges(workload, exchanges, state) -> int:
    """Check every reply against the benchmark's own computation.

    Returns the number of failed exchanges (no reply, or not 200 — those
    are counted, not checked); raises CheckFailed on a wrong answer.
    """
    reference = inputs.reference_probabilities(
        state.registry_root, state.model_names, state.variants
    )
    failed = 0
    for exchange in exchanges:
        if exchange.status != 200:
            failed += 1
            continue
        payload = json.loads(exchange.payload)
        members = state.requests.members[exchange.body_index]
        if workload == "serve_cold":
            results = payload["results"]
            check(payload["count"] == len(members) == len(results),
                  f"reply holds {payload['count']} results for {len(members)} graphs")
        else:
            results = [payload["result"]]
        for result, index in zip(results, members):
            variant = state.variants[index]
            check(result["fingerprint"] == variant.fingerprint,
                  f"fingerprint of {variant.region}@{variant.sequence_name} differs")
            probabilities = np.asarray(result["probabilities"])
            check(np.allclose(probabilities, reference[index], rtol=0.0, atol=1e-9),
                  f"probabilities of {variant.region}@{variant.sequence_name} differ "
                  f"by {np.abs(probabilities - reference[index]).max():.3g}")
            check(result["label"] == int(np.argmax(reference[index])),
                  f"label of {variant.region}@{variant.sequence_name} is not the argmax")
    return failed


# --------------------------------------------------------------- timed run
def run_timed(workload: str, seed: int, seconds: float, ctx) -> Dict[str, object]:
    setup_s, state = set_up(workload, seed, ctx, with_server=True)
    try:
        exchanges, window_start = drive(workload, state.server.port, state.requests, seconds)
        rss_mb = harness.peak_rss_mb([state.server.pid] + state.server.worker_pids())
        state.server.stop()
        correct, failed = harness.checked(check_exchanges, workload, exchanges, state)
    finally:
        state.close()
    if not correct:
        failed = sum(1 for e in exchanges if e.status != 200)
    timed = [e for e in exchanges if e.timed and e.status == 200]
    rounds = round_times(state.requests, timed, window_start)
    if not rounds:
        raise RuntimeError("not one round over the variant set completed in the window")
    latencies_ms = [e.latency_s * 1000.0 for e in timed]
    graphs = sum(graphs_in(state.requests, e.body_index) for e in timed)
    return {
        "correct": correct,
        "attempted": len(exchanges),
        "failed": failed,
        "metrics": {
            "setup_s": setup_s,
            "peak_rss_mb": rss_mb,
            "pipeline_s": statistics.median(rounds),
            # Over the window up to its last counted reply.
            "graphs_per_s": graphs / (max(e.ended for e in timed) - window_start),
            "latency_p50_ms": np.percentile(latencies_ms, 50),
            "latency_p90_ms": np.percentile(latencies_ms, 90),
        },
        "info": {
            "inputs": inputs.describe(state.variants),
            "timed_requests": len(timed),
            "rounds": len(rounds),
        },
    }


# ------------------------------------------------------------- traced run
def _replay(app, requests, positions, tracer=None):
    """Answer the requests at ``positions`` one after another through
    ``ServingApp.handle``, encoding each reply as the HTTP handler would;
    returns the wall time and every exchange."""
    exchanges: List[Exchange] = []
    began = time.perf_counter()
    for request_id, position in enumerate(positions):
        body_index = requests.body_at(position)
        start = time.perf_counter()
        if tracer is None:
            status, payload, _ = app.handle("POST", "/v1/predict", requests.bodies[body_index])
            body = json.dumps(payload).encode("utf-8")
        else:
            with tracer.span("request", request_id=request_id):
                status, payload, _ = app.handle(
                    "POST", "/v1/predict", requests.bodies[body_index]
                )
                with tracer.span("respond"):
                    body = json.dumps(payload).encode("utf-8")
        ended = time.perf_counter()
        exchanges.append(Exchange(body_index, status, body, ended - start, ended))
    return time.perf_counter() - began, exchanges


def _install_spans(tracer):
    """Spans around the serving layers' public entry points."""
    from concurrent.futures import Future
    from multiprocessing.reduction import ForkingPickler

    from repro.engine import StackedFoldModel
    from repro.engine.plan import ExecutionPlan
    from repro.gnn.model import StaticRGCNModel
    from repro.graphs import GraphEncoder, batching, fingerprint
    from repro.serving import http as serving_http, serialization
    from repro.serving.http import ServingApp
    from repro.serving.replica import ReplicaSupervisor

    tracer.wrap_method(ServingApp, "_parse_body", "wire.json")
    tracer.wrap_function(
        serialization, "program_graph_from_dict", "wire.decode",
        after=lambda graph, args: tracer.count("wire.nodes", graph.num_nodes),
    )
    tracer.wrap_function(serving_http, "result_to_dict", "respond")
    tracer.wrap_method(GraphEncoder, "encode", "graphs.encode")
    tracer.wrap_function(fingerprint, "graph_fingerprint", "fingerprint")
    tracer.wrap_function(batching, "collate", "batch.collate")
    tracer.wrap_method(ExecutionPlan, "from_batch", "plan")

    def inferred(result, args):
        if not tracer.inside("infer"):
            tracer.count("infer.graphs", args[1].num_graphs)

    for cls in (StackedFoldModel, StaticRGCNModel):
        tracer.wrap_method(cls, "infer", "infer", after=inferred)

    def dispatched(call, args):
        tracer.count("pool.requests")
        tracer.count("pool.pipe_bytes", len(ForkingPickler.dumps((0, args[1], args[2]))))

    tracer.wrap_method(ReplicaSupervisor, "_dispatch", "pool.dispatch", after=dispatched)
    # Waiting on a reply: from a replica worker, or from the micro-batcher.
    tracer.wrap_method(Future, "result", "reply.wait")


def _target(workload, state, replicated=True):
    """The hub (or replica pool) the CLI would build for this workload;
    ``replicated=False`` drops ``--replicas``, giving the hub one replica
    worker hosts."""
    from repro.serving.__main__ import build_hub, build_parser, build_supervisor

    argv = ["--root", state.registry_root, "--port", "0",
            "--cache-capacity", str(CACHE_CAPACITY[workload])] + SERVER_ARGS[workload]
    args = build_parser().parse_args(argv)
    if args.replicas and replicated:
        return build_supervisor(args)
    args.replicas = None
    return build_hub(args)


def run_traced(workload: str, seed: int, seconds: float, ctx) -> Dict[str, object]:
    _, state = set_up(workload, seed, ctx, with_server=False)
    try:
        exchanges, values, tracers = _traced_replay(workload, state, seconds)
        correct, failed = harness.checked(check_exchanges, workload, exchanges, state)
    finally:
        state.close()
    for suffix, tracer in tracers.items():
        tracer.write(ctx.trace_path + suffix)
    if not correct:
        failed = sum(1 for e in exchanges if e.status != 200)
    return {"correct": correct, "attempted": len(exchanges), "failed": failed, "metrics": values}


def _traced_replay(workload, state, seconds):
    """Replay the timed run's request sequence in-process.

    Warm up, replay untraced for half the window, then replay the same
    requests traced.  For serve_hot the traced replay runs twice: through
    the replica pool (supervisor-side layers) and through one in-process
    hub of the kind each replica worker hosts (worker-side layers, which
    the pool's ``/metrics`` does not break down).
    """
    from repro.serving import ServingApp

    requests = state.requests
    target = _target(workload, state)
    app = ServingApp(target).start()
    try:
        warmup = WARMUP_REQUESTS[workload]
        _, exchanges = _replay(app, requests, range(warmup))
        worker_pids = _worker_pids(target)
        cpu_before = _cpu(worker_pids)
        deadline = time.perf_counter() + seconds / 2
        untraced_s = 0.0
        end = warmup
        while time.perf_counter() < deadline:
            wall, chunk = _replay(app, requests, range(end, end + 8))
            untraced_s += wall
            exchanges += chunk
            end += 8
        cpu_after = _cpu(worker_pids)
        positions = range(warmup, end)
        tracer = harness.Tracer()
        before = app.metrics()
        _install_spans(tracer)
        try:
            traced_s, traced = _replay(app, requests, positions, tracer)
        finally:
            tracer.restore()
        exchanges += traced
        after = app.metrics()
    finally:
        app.stop()
    values = _front_metrics(tracer, untraced_s, traced_s)
    tracers = {"": tracer}
    if worker_pids:
        values.update({
            "pool.supervisor_cpu_ms_per_request":
                1000.0 * (cpu_after[0] - cpu_before[0]) / len(positions),
            "pool.worker_cpu_ms_per_request":
                1000.0 * (cpu_after[1] - cpu_before[1]) / len(positions),
            "pool.pipe_bytes_per_request":
                tracer.counts.get("pool.pipe_bytes", 0.0) / max(tracer.counts.get("pool.requests", 0.0), 1.0),
        })
        hub_tracer = harness.Tracer()
        hub_app = ServingApp(_target(workload, state, replicated=False)).start()
        try:
            _replay(hub_app, requests, range(end))
            before = hub_app.metrics()
            _install_spans(hub_tracer)
            try:
                _, hub_exchanges = _replay(hub_app, requests, positions, hub_tracer)
            finally:
                hub_tracer.restore()
            exchanges += hub_exchanges
            after = hub_app.metrics()
        finally:
            hub_app.stop()
        tracers[".hub"] = hub_tracer
        values.update(_engine_metrics(hub_tracer, before, after))
    else:
        values.update(_engine_metrics(tracer, before, after))
    return exchanges, values, tracers


def _front_metrics(tracer, untraced_s, traced_s) -> Dict[str, float]:
    """Layers in front of the model: wire decode and reply encode."""
    totals = tracer.totals()
    decode_s = totals.get("wire.decode", {}).get("total_s", 0.0)
    return {
        "wire.json_s": totals.get("wire.json", {}).get("total_s", 0.0),
        "wire.decode_s": decode_s,
        "wire.decode_us_per_node": 1e6 * decode_s / max(tracer.counts.get("wire.nodes", 0.0), 1.0),
        "respond.s": totals.get("respond", {}).get("total_s", 0.0),
        "trace.wall_s": traced_s,
        "trace.overhead_pct": 100.0 * (traced_s - untraced_s) / untraced_s,
        "trace.coverage": tracer.coverage("request"),
    }


def _engine_metrics(tracer, before, after) -> Dict[str, float]:
    """Layers of one hub: encode, fingerprint, cache, batcher, engine."""
    totals = tracer.totals()

    def total(name):
        return totals.get(name, {}).get("total_s", 0.0)

    cache_before, cache_after = _cache_stats(before), _cache_stats(after)
    lookups = (cache_after["hits"] + cache_after["misses"]
               - cache_before["hits"] - cache_before["misses"])
    model = _model_section(after)
    graphs = tracer.counts.get("infer.graphs", 0.0)
    return {
        "graphs.encode_s": total("graphs.encode"),
        "fingerprint.s": total("fingerprint"),
        "cache.lookups": lookups,
        "cache.hit_ratio": (cache_after["hits"] - cache_before["hits"]) / lookups if lookups else 0.0,
        "cache.evictions": cache_after["evictions"] - cache_before["evictions"],
        "batch.collate_s": total("batch.collate"),
        "plan.s": total("plan"),
        "infer.s": total("infer"),
        "infer.graphs": graphs,
        "infer.us_per_graph": 1e6 * total("infer") / graphs if graphs else 0.0,
        "batch.mean_size": model.get("mean_batch_size", 0.0),
        "queue.p50_ms": 1000.0 * model.get("stages", {}).get("queue_wait", {}).get("p50_s", 0.0),
    }


def _worker_pids(target) -> List[int]:
    status = getattr(target, "replica_status", None)
    return [int(entry["pid"]) for entry in status()] if status else []


def _cpu(worker_pids):
    return harness.cpu_seconds(os.getpid()), sum(harness.cpu_seconds(p) for p in worker_pids)


def _model_section(snapshot) -> Dict[str, object]:
    return next(iter((snapshot["hub"].get("models") or {}).values()), {})


def _cache_stats(snapshot) -> Dict[str, float]:
    """Hit/miss/eviction counters of every cache serving this workload."""
    hub = snapshot["hub"]
    if hub.get("replicas"):
        caches = [entry["cache"] for entry in hub["replicas"].values() if entry.get("cache")]
    else:
        caches = [hub["cache"]] if hub.get("cache") else []
    return {
        key: sum(float(c.get(key, 0.0)) for c in caches)
        for key in ("hits", "misses", "evictions")
    }
