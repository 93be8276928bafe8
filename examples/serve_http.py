"""HTTP serving quickstart: train -> export -> serve over HTTP -> kill ->
restart warm from the background checkpoint.

Trains a small cross-validated pipeline, exports one fold into a registry,
deploys it in a :class:`ModelHub` behind the JSON/HTTP front-end
(``repro.serving.http``) with the hub's checkpoint daemon dumping the
embedding cache in the background, queries it over a real socket, then
kills the server and restarts it — the first burst after the restart is
answered from the checkpointed cache instead of re-paying the RGCN forward
passes.

Run with:  python examples/serve_http.py

The same server can be started from the command line against any registry
(``repro-serve`` is the installed alias)::

    python -m repro.serving --root /tmp/registry --name skylake-demo-fold0 \
        --port 8080 --checkpoint-path /tmp/repro-cache.npz

and queried with nothing but ``curl``::

    # identity + cache warmth
    curl -s http://127.0.0.1:8080/healthz

    # one prediction (wire-encoded ProgramGraph, schema_version 1)
    curl -s -X POST http://127.0.0.1:8080/v1/predict \
        -H 'Content-Type: application/json' \
        -d '{"graph": {"schema_version": 1, "name": "region", "metadata": {},
             "nodes": [{"kind": "instruction", "text": "br", "function": "f",
                        "block": "entry", "features": {}}],
             "edges": []}}'
    # -> {"result": {"label": 3, "configuration": {...}, "cache_hit": false, ...}}

    # serving telemetry (QPS, batch histogram, cache hit rate, checkpoints)
    curl -s http://127.0.0.1:8080/metrics
"""

import json
import os
import tempfile
import urllib.request

from repro.core import HybridModelConfig, PipelineConfig, ReproPipeline, StaticModelConfig
from repro.graphs import GraphBuilder
from repro.serving import (
    BatchingConfig,
    DeploymentSpec,
    ModelHub,
    PredictionHTTPServer,
    program_graph_to_dict,
)
from repro.workloads import build_suite

#: REPRO_EXAMPLE_FAST=1 shrinks the training run (used by the CI smoke test).
FAST = os.environ.get("REPRO_EXAMPLE_FAST") == "1"


def post_json(url: str, payload: dict) -> dict:
    request = urllib.request.Request(
        url,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    with urllib.request.urlopen(request) as response:
        return json.loads(response.read())


def get_json(url: str) -> dict:
    with urllib.request.urlopen(url) as response:
        return json.loads(response.read())


def main() -> None:
    # 1. Train: a deliberately small pipeline (one machine, few folds).
    config = PipelineConfig(
        machines=("skylake",),
        families=["clomp", "lulesh"],
        region_limit=6 if FAST else 12,
        num_flag_sequences=2 if FAST else 3,
        num_labels=6,
        folds=2 if FAST else 3,
        static_model=StaticModelConfig(
            hidden_dim=16,
            graph_vector_dim=16,
            num_rgcn_layers=1,
            epochs=1 if FAST else 4,
        ),
        hybrid=HybridModelConfig(use_ga_selection=False),
    )
    pipeline = ReproPipeline(config).build()
    evaluation = pipeline.evaluate("skylake")

    with tempfile.TemporaryDirectory(prefix="repro-http-") as root:
        # 2. Export one fold and deploy it in a hub with background cache
        #    checkpointing, behind the HTTP front-end.
        refs = pipeline.export_artifacts(evaluation, root, name="skylake-demo")
        checkpoint_path = os.path.join(root, "cache-checkpoint.npz")
        name = refs[0].name
        spec = DeploymentSpec(
            name=name, artifact=name, batching=BatchingConfig(max_delay_s=0.01)
        )
        hub = ModelHub(root, checkpoint_path=checkpoint_path, checkpoint_interval_s=0.5)
        hub.load(spec)

        # Raw ProgramGraphs, exactly what a remote client would build and
        # wire-encode (the service encodes them with its own vocabulary).
        builder = GraphBuilder()
        regions = build_suite(families=["clomp", "lulesh"], limit=6 if FAST else 12)
        graphs = [builder.build_module(region.module) for region in regions]
        wire_graphs = [program_graph_to_dict(graph) for graph in graphs]
        in_process_labels = [r.label for r in hub.predict_many(name, graphs)]
        hub.cache.clear()  # the HTTP session below starts cold

        with PredictionHTTPServer(hub) as server:
            print(f"serving on {server.url}")
            health = get_json(server.url + "/healthz")
            print(f"healthz: {health['status']}, serving {health['serving']['artifact']}")

            # 3. Query over a real socket: single requests ride the
            #    micro-batcher, the batch body goes through predict_many.
            http_labels = [
                post_json(server.url + "/v1/predict", {"graph": wire})["result"]["label"]
                for wire in wire_graphs
            ]
            batch = post_json(server.url + "/v1/predict", {"graphs": wire_graphs})
            print(f"HTTP labels:       {http_labels}")
            print(f"HTTP batch labels: {[r['label'] for r in batch['results']]}")
            print(f"in-process labels: {in_process_labels}")
            assert http_labels == in_process_labels
            metrics = get_json(server.url + "/metrics")
            print(
                f"metrics: {metrics['stats']['total_requests']} requests, "
                f"cache hit rate {metrics['stats']['cache_hit_rate']:.2f}"
            )
        # Leaving the ``with`` block killed the server; the hub's daemon
        # wrote a final checkpoint on the way down.
        print(f"server down, checkpoint at {checkpoint_path}: "
              f"{os.path.getsize(checkpoint_path)} bytes")

        # 4. Restart: a brand-new process-worth of state, warmed from the
        #    checkpoint — the whole first burst is answered from cache.
        restarted = ModelHub(root, warmup_path=checkpoint_path)
        restarted.load(spec)
        with PredictionHTTPServer(restarted) as server:
            burst = post_json(server.url + "/v1/predict", {"graphs": wire_graphs})
            hits = [r["cache_hit"] for r in burst["results"]]
            labels = [r["label"] for r in burst["results"]]
            print(f"warm restart: first burst cache hits = {hits}")
            assert labels == in_process_labels
            assert all(hits), "restart should answer its first burst from cache"


if __name__ == "__main__":
    main()
