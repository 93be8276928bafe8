"""Ensemble serving quickstart: train -> export -> ensemble -> gc -> warm-up.

Trains a small cross-validated pipeline, exports every fold's predictor,
then serves *all* folds behind one :class:`EnsemblePredictionService`
endpoint — comparing the mean-softmax and majority-vote combination
strategies and printing per-fold agreement per region.  Finally it
demonstrates the registry retention policy (``gc`` with pinning) and the
cache warm-up cycle that lets a restarted server answer its first repeated
request from cache.

Run with:  python examples/serve_ensemble.py
"""

import os
import tempfile

from repro.core import HybridModelConfig, PipelineConfig, ReproPipeline, StaticModelConfig
from repro.serving import (
    ArtifactRegistry,
    DeploymentSpec,
    EmbeddingCache,
    EnsemblePredictionService,
    ModelHub,
)

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

    with tempfile.TemporaryDirectory(prefix="repro-ensemble-") as root:
        # 2. Export: every fold under one base name; the manifest metadata
        #    records the full membership.
        refs = pipeline.export_artifacts(evaluation, root, name="skylake-demo")
        registry = ArtifactRegistry(root)
        print("exported folds:", registry.fold_members("skylake-demo"))

        # 3. Ensemble: discover and load every fold, answer through both
        #    combination strategies.
        fold = evaluation.folds[0]
        samples = pipeline.region_samples(fold.validation_regions, fold.explored_sequence)
        graphs = [sample.graph for sample in samples]
        for strategy in ("mean-softmax", "majority-vote"):
            service = EnsemblePredictionService.from_registry(
                root, "skylake-demo", strategy=strategy, cache=EmbeddingCache(1024)
            )
            print(f"\n{strategy} over {service.num_members} folds:")
            for result in service.predict_many(graphs):
                configuration = (
                    result.configuration.describe() if result.configuration else "?"
                )
                print(
                    f"  {result.name:40s} label={result.label} "
                    f"agreement={result.agreement:.2f} "
                    f"votes={result.per_fold_labels} config={configuration}"
                )

        # 4. Warm-up: dump the (version-set keyed) cache, then restart as a
        #    hub deployment whose spec warms the hub's cache from the dump.
        warm_path = os.path.join(root, "warmup.npz")
        entries = service.dump_cache(warm_path)
        hub = ModelHub(root)
        hub.load(
            DeploymentSpec(
                name="skylake-demo", fold_group="skylake-demo", warmup_path=warm_path
            )
        )
        restarted = hub.resolve("skylake-demo").predictor
        first = restarted.predict(graphs[0])
        print(
            f"\nwarm restart: {entries} cached entries persisted, "
            f"first request cache_hit={first.cache_hit}"
        )

        # 5. Retention: re-export twice (new versions), pin a rollback
        #    target, then garbage-collect everything but the latest + pinned.
        pipeline.export_artifacts(evaluation, root, name="skylake-demo")
        pipeline.export_artifacts(evaluation, root, name="skylake-demo")
        name = refs[0].name
        registry.pin(name, "v0001")
        would_remove = registry.gc(name, keep_last=1, dry_run=True)
        removed = registry.gc(name, keep_last=1)
        print(
            f"\nretention for {name}: dry-run proposed {would_remove or 'nothing'}, "
            f"removed {removed or 'nothing'}, kept {registry.versions(name)} "
            f"(pinned: {registry.pinned_versions(name)})"
        )

        # 6. Telemetry.
        print("\nensemble stats:")
        for key, value in restarted.snapshot().items():
            print(f"  {key:20s} {value}")


if __name__ == "__main__":
    main()
