"""Command-line HTTP serving entry point over the model hub.

The flags become a list of deployment specs
(:class:`~repro.serving.deployment.DeploymentSpec`, batching flags filling
each spec's ``batching`` block) loaded into one
:class:`~repro.serving.hub.ModelHub`, or into each worker's hub under
``--replicas``.

Serve the latest version of one artifact (a one-deployment hub, so
``POST /v1/predict`` and the named route
``POST /v1/models/<name>/predict`` both work)::

    python -m repro.serving --root /path/to/registry --name skylake-demo-fold0

Serve every exported fold of a base name as an ensemble, with background
cache checkpointing every 30 seconds (the checkpoint file doubles as the
warm-up file on the next start, so a crashed or restarted server answers
its first burst from cache)::

    python -m repro.serving --root /path/to/registry --ensemble skylake-demo \
        --port 8080 --checkpoint-path /var/tmp/repro-cache.npz \
        --checkpoint-interval 30

Serve several named models from one process — ``--model`` is repeatable
and takes ``NAME=ARTIFACT[@VERSION]`` for a single model or
``NAME=ensemble:BASE[:STRATEGY]`` for a fold ensemble; ``--alias`` maps a
stable public name onto one of them (flip it at runtime via
``POST /v1/models/<alias>/alias``)::

    python -m repro.serving --root /path/to/registry \
        --model numa=skylake-demo-fold0@v0001 \
        --model ens=ensemble:skylake-demo:majority-vote \
        --alias prod=ens --default numa

Scale past the GIL with ``--replicas N``: the same model set is served by
a pool of N worker processes (each hosting a full hub) behind one HTTP
port, with fingerprint-affinity routing, heartbeat-driven respawn,
recycle-after-N, and transparent failover — a dying worker fails zero
requests.  In this mode ``--checkpoint-path`` names a *directory* of
per-replica cache dumps; respawned workers warm-start from their slot's
dump before entering rotation::

    python -m repro.serving --root /path/to/registry --name skylake-demo-fold0 \
        --replicas 4 --recycle-after 100000 --checkpoint-path /var/tmp/repro-ckpt

The installed console script ``repro-serve`` is an alias for this module.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .costmodel import DEFAULT_COST_MODEL_NAME
from .deployment import (
    SHED_POLICIES,
    BatchingConfig,
    DeploymentSpec,
    DeploymentSpecError,
    SLOConfig,
    deployment_spec_to_dict,
)
from .ensemble import STRATEGIES
from .http import (
    DEFAULT_MAX_BODY_BYTES,
    DEFAULT_REQUEST_TIMEOUT_S,
    PredictionHTTPServer,
)
from .hub import HubError, ModelHub
from .registry import ArtifactError
from .replica import ReplicaConfig, ReplicaSupervisor


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Serve trained predictors (single models, fold ensembles, "
        "or several named deployments at once) over JSON/HTTP.",
    )
    parser.add_argument("--root", required=True, help="artifact registry root directory")
    what = parser.add_mutually_exclusive_group(required=False)
    what.add_argument("--name", help="serve one artifact name (latest version)")
    what.add_argument(
        "--ensemble", metavar="BASE", help="serve every '<BASE>-fold<k>' artifact"
    )
    parser.add_argument(
        "--model",
        action="append",
        default=[],
        metavar="NAME=TARGET",
        help="deploy TARGET under NAME (repeatable); TARGET is "
        "'ARTIFACT[@VERSION]' or 'ensemble:BASE[:STRATEGY]'",
    )
    parser.add_argument(
        "--alias",
        action="append",
        default=[],
        metavar="ALIAS=NAME",
        help="point a stable public name at one deployment (repeatable)",
    )
    parser.add_argument(
        "--default",
        metavar="NAME",
        help="deployment answering the unnamed route POST /v1/predict "
        "(defaults to the first deployment)",
    )
    parser.add_argument("--version", help="pin a version (only with --name)")
    parser.add_argument(
        "--strategy",
        choices=STRATEGIES,
        default="mean-softmax",
        help="ensemble combination strategy (only with --ensemble)",
    )
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=8080)
    parser.add_argument("--max-batch-size", type=int, default=32)
    parser.add_argument(
        "--max-wait-ms", type=float, default=2.0, help="micro-batching window"
    )
    parser.add_argument("--cache-capacity", type=int, default=1024)
    parser.add_argument(
        "--no-cache", action="store_true", help="disable the embedding cache"
    )
    parser.add_argument(
        "--pool-workers",
        type=int,
        default=2,
        help="worker threads of the shared batcher pool draining every "
        "deployment's micro-batch queue",
    )
    parser.add_argument(
        "--checkpoint-path",
        help="dump the (shared) cache here on an interval and on shutdown; "
        "also used as the warm-up file at startup if it exists",
    )
    parser.add_argument(
        "--checkpoint-interval", type=float, default=30.0, metavar="SECONDS"
    )
    parser.add_argument(
        "--warmup-path",
        help="explicit warm-up file (defaults to --checkpoint-path)",
    )
    parser.add_argument(
        "--journal-dir",
        help="record every served prediction into JSONL segments under this "
        "directory (query them with repro-journal)",
    )
    parser.add_argument(
        "--journal-no-graphs",
        action="store_true",
        help="journal telemetry only, without the replayable request graphs "
        "(smaller segments, no offline A/B replay)",
    )
    parser.add_argument(
        "--slo-p95-ms",
        type=float,
        metavar="MS",
        help="p95 latency target applied to every deployment (drives "
        "deadline-aware batch closing when a cost model is loaded)",
    )
    parser.add_argument(
        "--slo-max-queue-ms",
        type=float,
        metavar="MS",
        help="admission budget: predicted queueing beyond this sheds (429)",
    )
    parser.add_argument(
        "--slo-max-concurrency",
        type=int,
        metavar="N",
        help="admission budget: at most N requests in flight per deployment",
    )
    parser.add_argument(
        "--shed-policy",
        choices=SHED_POLICIES,
        default="none",
        help="'shed' enforces the SLO budgets with structured 429s; "
        "'none' (default) only reports them in GET /v1/capacity",
    )
    parser.add_argument(
        "--cost-model",
        metavar="NAME[@VERSION]",
        help="load a calibrated latency cost model from the registry "
        f"(bare '@VERSION' pins the default name "
        f"{DEFAULT_COST_MODEL_NAME!r}; fit one with "
        "CostModelCalibrator over a journal)",
    )
    parser.add_argument(
        "--replicas",
        type=int,
        metavar="N",
        help="serve from a pool of N worker processes (each hosting a full "
        "hub) with fingerprint-affinity routing, heartbeat respawn and "
        "transparent failover; in this mode --checkpoint-path names a "
        "directory of per-replica cache dumps",
    )
    parser.add_argument(
        "--recycle-after",
        type=int,
        metavar="N",
        help="retire and replace a replica after it has answered N "
        "requests (bounds slow leaks; only with --replicas)",
    )
    parser.add_argument(
        "--heartbeat-interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="replica heartbeat cadence (only with --replicas)",
    )
    parser.add_argument(
        "--heartbeat-timeout",
        type=float,
        default=15.0,
        metavar="SECONDS",
        help="kill and respawn a replica silent for this long "
        "(only with --replicas)",
    )
    parser.add_argument(
        "--start-method",
        choices=("forkserver", "spawn"),
        help="multiprocessing start method for replica workers "
        "(default: forkserver where available, else spawn)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=DEFAULT_REQUEST_TIMEOUT_S
    )
    parser.add_argument("--max-body-bytes", type=int, default=DEFAULT_MAX_BODY_BYTES)
    parser.add_argument(
        "--verbose", action="store_true", help="log one line per HTTP request"
    )
    return parser


def build_slo(args: argparse.Namespace) -> Optional[SLOConfig]:
    """The SLO block the CLI flags describe (None when none were given)."""
    if (
        args.slo_p95_ms is None
        and args.slo_max_queue_ms is None
        and args.slo_max_concurrency is None
        and args.shed_policy == "none"
    ):
        return None
    try:
        return SLOConfig(
            p95_ms=args.slo_p95_ms,
            max_queue_ms=args.slo_max_queue_ms,
            max_concurrency=args.slo_max_concurrency,
            shed_policy=args.shed_policy,
        )
    except ValueError as exc:
        raise DeploymentSpecError(str(exc)) from exc


def _parse_cost_model(entry: str) -> Tuple[str, Optional[str]]:
    """``NAME[@VERSION]`` → (name, version); bare ``@vNNNN`` pins the
    default cost-model name."""
    name, separator, version = entry.partition("@")
    if separator and not version:
        raise DeploymentSpecError(
            f"--cost-model takes NAME[@VERSION], got {entry!r}"
        )
    return name or DEFAULT_COST_MODEL_NAME, version if separator else None


def _spec_knobs(args: argparse.Namespace) -> Dict[str, object]:
    """The serving knobs every CLI-built spec shares."""
    try:
        batching = BatchingConfig(
            max_batch_size=args.max_batch_size,
            max_delay_s=args.max_wait_ms / 1000.0,
        )
    except ValueError as exc:
        raise DeploymentSpecError(str(exc)) from exc
    return dict(
        batching=batching, enable_cache=not args.no_cache, slo=build_slo(args)
    )


def _parse_model_arg(entry: str, args: argparse.Namespace) -> DeploymentSpec:
    """One ``NAME=TARGET`` CLI entry → a DeploymentSpec."""
    name, separator, target = entry.partition("=")
    if not separator or not name or not target:
        raise DeploymentSpecError(
            f"--model takes NAME=TARGET, got {entry!r}"
        )
    common = _spec_knobs(args)
    if target.startswith("ensemble:"):
        rest = target[len("ensemble:"):]
        base, separator, strategy = rest.partition(":")
        if not base:
            raise DeploymentSpecError(
                f"--model {entry!r}: ensemble target needs a base name "
                f"('NAME=ensemble:BASE[:STRATEGY]')"
            )
        return DeploymentSpec(
            name=name,
            fold_group=base,
            strategy=strategy if separator else "mean-softmax",
            **common,
        )
    artifact, separator, version = target.partition("@")
    return DeploymentSpec(
        name=name,
        artifact=artifact,
        version=version if separator else None,
        **common,
    )


def build_specs(args: argparse.Namespace) -> List[DeploymentSpec]:
    """Every deployment the CLI asked for (--name and --ensemble add one each)."""
    specs = [_parse_model_arg(entry, args) for entry in args.model]
    common = _spec_knobs(args)
    if args.name:
        specs.append(
            DeploymentSpec(
                name=args.name, artifact=args.name, version=args.version, **common
            )
        )
    if args.ensemble:
        specs.append(
            DeploymentSpec(
                name=args.ensemble,
                fold_group=args.ensemble,
                strategy=args.strategy,
                **common,
            )
        )
    return specs


def _parse_aliases(entries: Sequence[str]) -> List[Tuple[str, str]]:
    aliases = []
    for entry in entries:
        alias, separator, target = entry.partition("=")
        if not separator or not alias or not target:
            raise DeploymentSpecError(f"--alias takes ALIAS=NAME, got {entry!r}")
        aliases.append((alias, target))
    return aliases


def build_hub(args: argparse.Namespace) -> ModelHub:
    """Resolve every spec and assemble the hub (shared cache + daemon)."""
    hub = ModelHub(
        args.root,
        cache_capacity=args.cache_capacity,
        enable_cache=not args.no_cache,
        warmup_path=args.warmup_path or args.checkpoint_path,
        checkpoint_path=args.checkpoint_path,
        checkpoint_interval_s=args.checkpoint_interval,
        pool_workers=args.pool_workers,
        journal_dir=args.journal_dir,
        journal_record_graphs=not args.journal_no_graphs,
    )
    if args.cost_model:
        # Installed before the specs load, so every deployment's batcher is
        # born knowing its deadline target.
        name, version = _parse_cost_model(args.cost_model)
        hub.reload_cost_model(name, version)
    for spec in build_specs(args):
        hub.load(spec)
    for alias, target in _parse_aliases(args.alias):
        hub.alias(alias, target)
    if args.default:
        hub.set_default(args.default)
    return hub


def build_supervisor(args: argparse.Namespace) -> ReplicaSupervisor:
    """The replica-pool equivalent of :func:`build_hub`.

    Specs are parsed and validated here (same failure modes as the
    in-process path) but resolved inside each worker; ``--checkpoint-path``
    becomes the directory of per-slot cache dumps new workers warm-start
    from.
    """
    config = ReplicaConfig(
        registry_root=args.root,
        specs=[deployment_spec_to_dict(spec) for spec in build_specs(args)],
        aliases=_parse_aliases(args.alias),
        default=args.default,
        cost_model=(
            _parse_cost_model(args.cost_model) if args.cost_model else None
        ),
        cache_capacity=args.cache_capacity,
        enable_cache=not args.no_cache,
        pool_workers=args.pool_workers,
        journal_dir=args.journal_dir,
        journal_record_graphs=not args.journal_no_graphs,
        checkpoint_dir=args.checkpoint_path,
        checkpoint_interval_s=args.checkpoint_interval,
        replicas=args.replicas,
        start_method=args.start_method,
        heartbeat_interval_s=args.heartbeat_interval,
        heartbeat_timeout_s=args.heartbeat_timeout,
        recycle_after=args.recycle_after,
    )
    return ReplicaSupervisor(config)


def _fail(code: str, message: str) -> int:
    """One machine-readable error line on stderr, exit 2 — the same
    convention as the ``repro-journal`` CLI."""
    print(
        json.dumps({"error": {"code": code, "message": message}}, sort_keys=True),
        file=sys.stderr,
    )
    return 2


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.version and not args.name:
        return _fail("invalid-config", "--version requires --name")
    if not (args.name or args.ensemble or args.model):
        return _fail(
            "invalid-config",
            "nothing to serve: pass --name, --ensemble, or --model",
        )
    if args.cache_capacity < 1:
        return _fail("invalid-config", "--cache-capacity must be >= 1")
    if args.no_cache and (args.warmup_path or args.checkpoint_path):
        return _fail(
            "invalid-config",
            "--warmup-path/--checkpoint-path require the cache "
            "(drop --no-cache)",
        )
    replicated = args.replicas is not None
    if replicated and args.warmup_path:
        return _fail(
            "invalid-config",
            "--warmup-path is not supported with --replicas (each replica "
            "warm-starts from its own per-slot checkpoint dump)",
        )
    if args.recycle_after is not None and not replicated:
        return _fail("invalid-config", "--recycle-after requires --replicas")
    try:
        target = build_supervisor(args) if replicated else build_hub(args)
    except DeploymentSpecError as exc:
        return _fail("invalid-spec", str(exc))
    except (ArtifactError, HubError, ValueError) as exc:
        return _fail("invalid-config", str(exc))

    server = PredictionHTTPServer(
        target,
        host=args.host,
        port=args.port,
        request_timeout_s=args.request_timeout,
        max_body_bytes=args.max_body_bytes,
        quiet=not args.verbose,
    )
    names = ", ".join(target.names())
    aliases = target.aliases()
    alias_note = (
        " (aliases: " + ", ".join(f"{a}→{t}" for a, t in sorted(aliases.items())) + ")"
        if aliases
        else ""
    )
    pool_note = f" across {args.replicas} replica(s)" if replicated else ""
    print(
        f"serving {len(target)} model(s) [{names}]{alias_note}{pool_note} "
        f"on {server.url}",
        flush=True,
    )
    try:
        server.run()
    except (ArtifactError, HubError) as exc:
        # Replica workers resolve their specs at spawn time, so a bad
        # artifact surfaces here rather than in build_supervisor().
        return _fail("startup-failed", str(exc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
