"""Observability walkthrough: prediction journal, request tracing,
drift alerts and offline A/B replay.

Trains a small pipeline, exports two versions of a fold artifact, then
serves both from one hub with a prediction journal attached.  The demo:

* serves traffic over HTTP with per-request traces opted in
  (``"trace": true`` on the predict body) and prints the span breakdown;
* reads per-stage latency percentiles from ``/metrics`` and the
  Prometheus text exposition from ``/metrics?format=prometheus``;
* injects a synthetic fold-agreement collapse and watches
  ``GET /v1/models/<name>/drift`` flip from ``ok`` to ``drift``;
* after shutdown, queries the journal offline (the ``repro-journal`` CLI
  reads the same directory) and replays the recorded traffic through
  both model versions, diffing their answers.

Run with:  python examples/observe_hub.py

Set ``REPRO_JOURNAL_DIR`` to keep the journal after the run (CI uploads
it as a build artifact); by default it is written to a temporary
directory.  The same journal can then be queried from the shell::

    repro-journal stats --dir "$REPRO_JOURNAL_DIR"
    repro-journal tail  --dir "$REPRO_JOURNAL_DIR" -n 5 --no-graphs
    repro-journal query --dir "$REPRO_JOURNAL_DIR" --cache-miss --count
"""

import json
import os
import tempfile
import urllib.request

from repro.core import HybridModelConfig, PipelineConfig, ReproPipeline, StaticModelConfig
from repro.graphs import GraphBuilder
from repro.serving import (
    DeploymentSpec,
    DriftConfig,
    EmbeddingCache,
    JournalReader,
    ModelHub,
    PredictionHTTPServer,
    PredictionService,
    ArtifactRegistry,
    program_graph_to_dict,
    replay_ab,
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


def get_text(url: str) -> str:
    with urllib.request.urlopen(url) as response:
        return response.read().decode("utf-8")


def run(root: str, journal_dir: str) -> None:
    # 1. Train small and export the fold artifacts twice — v0001 and v0002
    #    stand in for a release and its retrained successor.
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
    refs = pipeline.export_artifacts(evaluation, root, name="skylake-demo")
    pipeline.export_artifacts(evaluation, root, name="skylake-demo")  # v0002
    fold0 = refs[0].name

    # 2. One hub, two versions of the same artifact, one journal.  Every
    #    served prediction is recorded asynchronously (fingerprint, label,
    #    cache hit, per-stage spans, and the request graph for replay).
    hub = ModelHub(
        root,
        journal_dir=journal_dir,
        drift_config=DriftConfig(recent_window=8, baseline_window=16, min_samples=8),
    )
    hub.load(DeploymentSpec(name="old", artifact=fold0, version="v0001"))
    hub.load(DeploymentSpec(name="new", artifact=fold0, version="v0002"))

    builder = GraphBuilder()
    regions = build_suite(families=["clomp", "lulesh"], limit=6 if FAST else 12)
    wire_graphs = [
        program_graph_to_dict(builder.build_module(region.module))
        for region in regions
    ]

    with PredictionHTTPServer(hub) as server:
        print(f"hub serving on {server.url} (journal: {journal_dir})")

        # 3. Traced requests: opt in per call, read the span breakdown.
        answer = post_json(
            server.url + "/v1/models/new/predict",
            {"graph": wire_graphs[0], "trace": True},
        )
        trace = answer["result"]["trace"]
        print(
            "traced predict: label={} decode={:.1f}us plan={:.1f}us "
            "infer={:.1f}us total={:.1f}us".format(
                answer["result"]["label"],
                trace["decode_s"] * 1e6,
                trace.get("plan_build_s", 0.0) * 1e6,
                trace.get("infer_s", 0.0) * 1e6,
                trace["total_s"] * 1e6,
            )
        )

        # Serve the rest of the traffic (a few repeats → cache hits too).
        for _ in range(3):
            post_json(
                server.url + "/v1/models/new/predict", {"graphs": wire_graphs}
            )
        post_json(server.url + "/v1/models/old/predict", {"graph": wire_graphs[0]})

        # 4. The spans aggregate into /metrics as per-stage percentiles —
        #    and the same payload renders as a Prometheus exposition.
        stages = get_json(server.url + "/v1/models/new/metrics")["stats"]["stages"]
        for stage in ("decode", "cache_lookup", "plan_build", "infer", "combine"):
            if stage in stages:
                print(
                    f"stage {stage:>12}: p50={stages[stage]['p50_s'] * 1e6:8.1f}us "
                    f"p95={stages[stage]['p95_s'] * 1e6:8.1f}us "
                    f"(n={stages[stage]['count']})"
                )
        exposition = get_text(server.url + "/metrics?format=prometheus")
        print(
            "prometheus exposition: "
            f"{sum(1 for line in exposition.splitlines() if not line.startswith('#'))}"
            " series"
        )

        # 5. Drift: stable traffic reads ok/insufficient-data; a synthetic
        #    fold-agreement collapse (injected straight into the journal's
        #    live window) trips the alert.
        print(
            "drift before:",
            get_json(server.url + "/v1/models/old/drift")["status"],
        )
        for i in range(16):
            hub.journal.record(
                {
                    "ts": float(i),
                    "model": "old",
                    "label": 0,
                    "agreement": 1.0 if i < 8 else 0.2,
                    "cache_hit": False,
                    "batch_size": 1,
                    "latency_s": 0.001,
                    "stages": {},
                    "graph": None,
                }
            )
        verdict = get_json(server.url + "/v1/models/old/drift")
        print(
            "drift after collapse:",
            verdict["status"],
            [alert["kind"] for alert in verdict["alerts"]],
        )

    hub.stop()  # final journal flush

    # 6. Offline: the journal is plain JSONL segments — query it, then
    #    replay the recorded traffic through both versions and diff.
    reader = JournalReader(journal_dir)
    stats = reader.stats(model="new")
    print(
        f"journal: {stats['records']} records for 'new', "
        f"hit rate {stats['cache_hit_rate']:.2f}, "
        f"label distribution {stats['label_distribution']}"
    )
    registry = ArtifactRegistry(root)
    side_a = PredictionService.from_artifact(
        registry.load(fold0, "v0001"), cache=EmbeddingCache(1024)
    )
    side_b = PredictionService.from_artifact(
        registry.load(fold0, "v0002"), cache=EmbeddingCache(1024)
    )
    report = replay_ab(
        reader.records(model="new"), side_a, side_b, names=("v0001", "v0002")
    )
    print(
        f"replay: {report['requests']} requests, "
        f"agreement {report['agreement_rate']:.2f}, "
        f"{len(report['disagreements'])} disagreement(s)"
    )
    for entry in report["disagreements"][:3]:
        print(
            f"  {entry['name']}: v0001={entry['v0001']} v0002={entry['v0002']} "
            f"(served: {entry['journalled_label']})"
        )


def main() -> None:
    journal_dir = os.environ.get("REPRO_JOURNAL_DIR")
    with tempfile.TemporaryDirectory(prefix="repro-observe-") as root:
        if journal_dir:
            run(root, journal_dir)
        else:
            run(root, os.path.join(root, "journal"))


if __name__ == "__main__":
    main()
