"""Serving quickstart: train -> export -> serve -> query.

Trains a small cross-validated pipeline, exports every fold's predictor into
a versioned artifact registry, reloads one fold in a fresh
``PredictionService`` and answers region queries through the sync, batched
and async (micro-batching) front-ends — printing the serving telemetry at
the end.

Run with:  python examples/serve_predictions.py
"""

import os
import tempfile

from repro.core import HybridModelConfig, PipelineConfig, ReproPipeline, StaticModelConfig
from repro.serving import ArtifactRegistry, BatchingConfig, EmbeddingCache, PredictionService

#: REPRO_EXAMPLE_FAST=1 shrinks the training run (used by the CI smoke test).
FAST = os.environ.get("REPRO_EXAMPLE_FAST") == "1"


def main() -> None:
    # 1. Train: a deliberately small pipeline (one machine, three folds).
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

    with tempfile.TemporaryDirectory(prefix="repro-registry-") as root:
        # 2. Export: one versioned artifact per fold (weights + vocabulary +
        #    label space + hybrid classifier, all checksummed).
        refs = pipeline.export_artifacts(evaluation, root, name="skylake-demo")
        print("exported artifacts:")
        for ref in refs:
            print(f"  {ref} -> {ref.path}")

        # 3. Serve: reload the first fold in a fresh service with its own
        #    embedding cache. The registry verifies every checksum before
        #    deserialising a single weight.
        ref = refs[0]
        service = PredictionService.from_registry(
            root,
            ref.name,
            batching=BatchingConfig(max_batch_size=16, max_delay_s=0.01),
            cache=EmbeddingCache(1024),
        )

        # 4. Query: one region at a time (cold, then cache-hot) ...
        fold = evaluation.folds[0]
        samples = pipeline.region_samples(fold.validation_regions, fold.explored_sequence)
        graphs = [sample.graph for sample in samples]
        print("\nper-request predictions:")
        for graph in graphs:
            result = service.predict(graph)
            configuration = result.configuration.describe() if result.configuration else "?"
            print(
                f"  {result.name:40s} label={result.label} config={configuration} "
                f"cache_hit={result.cache_hit}"
            )
        repeat = service.predict(graphs[0])
        print(f"repeat query cache_hit={repeat.cache_hit}")

        # ... then a 3x burst through the async micro-batching front-end.
        burst = graphs * 3
        with service:
            futures = [service.submit(graph) for graph in burst]
            labels = [future.result(timeout=30).label for future in futures]
        print(f"\nasync burst of {len(burst)} answered, labels: {sorted(set(labels))}")

        # 5. Telemetry.
        print("\nserving stats:")
        for key, value in service.stats.snapshot().items():
            print(f"  {key:20s} {value}")


if __name__ == "__main__":
    main()
