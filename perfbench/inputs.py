"""Seeded inputs of the serving workloads: IR variants, wire bodies, models.

Every input is derived from the ``--seed`` argument: the flag sequences
that make the IR variants, the model weights written to the registry, the
order of the batch bodies and the Zipf draw of single-graph requests.  The
server only ever sees what is generated here.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from repro.core import StaticConfigurationPredictor, StaticModelConfig
from repro.graphs import GraphBuilder, GraphEncoder, ProgramGraph, graph_fingerprint
from repro.ir.module import extract_region
from repro.passes.flag_sampler import sample_flag_sequences
from repro.passes.pass_manager import apply_flag_sequence
from repro.passes.pipelines import default_compilation_sequence
from repro.serving import ArtifactRegistry, program_graph_to_dict
from repro.workloads import build_suite

#: Flag sequences sampled per seed; with the default-O2 variant that makes
#: 57 x 17 = 969 candidate IR variants.
SERVE_SEQUENCES = 16
#: Distinct graphs the serving workloads draw on.  Many flag sequences
#: leave a region's extracted graph unchanged, so how many candidates are
#: distinct varies with the seed (239-335 over seeds 100-111; with
#: 8 sequences it fell to 153); a fixed count of distinct graphs keeps the
#: work per round the same for every seed.
SERVE_VARIANTS = 160
#: Members of the serve_cold ensemble deployment.
ENSEMBLE_FOLDS = 5
NUM_LABELS = 13
#: Graphs per serve_cold request body.
BATCH_GRAPHS = 8
#: serve_cold cache capacity: 5x smaller than the variant set, so every
#: lookup misses, inserts and evicts.
COLD_CACHE_CAPACITY = 32
#: serve_hot cache capacity: holds every variant.
HOT_CACHE_CAPACITY = 1024
#: Exponent of the serve_hot Zipf draw over the variants.  A steeper draw
#: lets the few hottest graphs' sizes set the cost of a run: at 1.1 the
#: request-weighted mean graph size ranged 64-82 nodes over seeds 300-307,
#: at 0.6 it stays within 71-75.
ZIPF_EXPONENT = 0.6
#: Length of the serve_hot request sequence (it is cycled).
HOT_SEQUENCE_LENGTH = 20000
ENSEMBLE_BASE = "bench"


@dataclass
class Variant:
    region: str
    sequence_name: str
    passes: List[str]
    graph: ProgramGraph
    wire: Dict[str, object]
    fingerprint: str
    nodes: int


def build_variants(seed: int) -> List[Variant]:
    """SERVE_VARIANTS IR variants with distinct fingerprints.

    Candidates are (region, flag sequence) pairs taken in a seeded order;
    a candidate whose graph repeats an earlier one is skipped.
    """
    regions = build_suite()
    sequences = sample_flag_sequences(SERVE_SEQUENCES, seed=seed)
    plans: List[Tuple[str, List[str]]] = [("default-O2", default_compilation_sequence())]
    plans += [(sequence.name, list(sequence)) for sequence in sequences]
    candidates = [(region, plan) for region in regions for plan in plans]
    builder = GraphBuilder()
    encoder = GraphEncoder()
    variants: List[Variant] = []
    seen = set()
    for index in np.random.default_rng([seed, 0]).permutation(len(candidates)):
        region, (sequence_name, passes) = candidates[index]
        transformed = apply_flag_sequence(region.module, passes, clone=True)
        extracted = extract_region(transformed, region.function_name)
        graph = builder.build_module(extracted, name=f"{region.name}@{sequence_name}")
        fingerprint = graph_fingerprint(encoder.encode(graph))
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        variants.append(
            Variant(
                region=region.name,
                sequence_name=sequence_name,
                passes=passes,
                graph=graph,
                wire=program_graph_to_dict(graph),
                fingerprint=fingerprint,
                nodes=graph.num_nodes,
            )
        )
        if len(variants) == SERVE_VARIANTS:
            return variants
    raise ValueError(f"seed {seed} gives fewer than {SERVE_VARIANTS} distinct variants")


def cold_bodies(variants: List[Variant]) -> List[Tuple[bytes, List[int]]]:
    """Batch bodies of BATCH_GRAPHS consecutive variants (the variants are
    already in a seeded order); returns ``(body, variant indices)`` pairs."""
    bodies = []
    for start in range(0, len(variants) - BATCH_GRAPHS + 1, BATCH_GRAPHS):
        members = list(range(start, start + BATCH_GRAPHS))
        payload = {"graphs": [variants[i].wire for i in members]}
        bodies.append((json.dumps(payload).encode("utf-8"), members))
    return bodies


def hot_bodies(variants: List[Variant]) -> List[bytes]:
    """One single-graph body per variant."""
    return [json.dumps({"graph": v.wire}).encode("utf-8") for v in variants]


def zipf_probabilities(num_variants: int) -> np.ndarray:
    """Request share of each rank in the serve_hot draw."""
    weights = 1.0 / np.arange(1, num_variants + 1) ** ZIPF_EXPONENT
    return weights / weights.sum()


def zipf_sequence(num_variants: int, seed: int) -> List[int]:
    """Seeded Zipf draw of variant indices (rank 1 is a seeded variant)."""
    rng = np.random.default_rng([seed, 2])
    ranking = rng.permutation(num_variants)
    draws = rng.choice(num_variants, size=HOT_SEQUENCE_LENGTH, p=zipf_probabilities(num_variants))
    return [int(ranking[d]) for d in draws]


def model_seeds(seed: int, count: int) -> List[int]:
    return [int(s) for s in np.random.default_rng([seed, 3]).integers(0, 2**31, size=count)]


def write_registry(root: str, seed: int) -> List[str]:
    """Save ENSEMBLE_FOLDS seeded (untrained) predictors as the fold
    members ``bench-fold<k>``; returns their names."""
    registry = ArtifactRegistry(root)
    encoder = GraphEncoder()
    names = []
    for fold, model_seed in enumerate(model_seeds(seed, ENSEMBLE_FOLDS)):
        predictor = StaticConfigurationPredictor(
            num_labels=NUM_LABELS,
            encoder=encoder,
            config=StaticModelConfig(seed=model_seed),
        )
        name = f"{ENSEMBLE_BASE}-fold{fold}"
        registry.save(name=name, predictor=predictor, metadata={"fold": fold})
        names.append(name)
    return names


def reference_probabilities(root: str, names: List[str], variants: List[Variant]) -> np.ndarray:
    """Mean over ``names`` of the training-time forward path's softmax
    (``Trainer.predict_proba``) on the benchmark's own encodings."""
    registry = ArtifactRegistry(root)
    encoder = GraphEncoder()
    encoded = [encoder.encode(v.graph) for v in variants]
    total = None
    for name in names:
        predictor = registry.load(name).build_predictor()
        probabilities = predictor.trainer.predict_proba(encoded)
        total = probabilities if total is None else total + probabilities
    return total / len(names)


def describe(variants: List[Variant]) -> Dict[str, object]:
    return {
        "variants": len(variants),
        "distinct_fingerprints": len({v.fingerprint for v in variants}),
        "mean_nodes": float(np.mean([v.nodes for v in variants])),
        "zipf_hottest_share": float(zipf_probabilities(len(variants))[0]),
    }


def registry_dir(work_dir: str, attempt: int) -> str:
    return os.path.join(work_dir, f"registry-{attempt}")
