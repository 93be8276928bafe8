"""Serving telemetry: request counters, batch-size histogram, latency
percentiles and queries-per-second.

One :class:`ServingStats` instance is owned by each
:class:`~repro.serving.service.PredictionService`; every front-end (sync,
batched, async) funnels through the same recorder, so a single
:meth:`snapshot` describes the whole service.  Latencies are kept in a
bounded window so a long-running service reports *recent* percentiles
rather than lifetime averages.
"""

from __future__ import annotations

import time
from collections import deque
from typing import Deque, Dict, Iterable, List, Optional, Sequence

import numpy as np

from ..concurrency import TrackedLock


def _stage_summary(values: np.ndarray) -> Dict[str, object]:
    """One stage's entry in a ``stages`` section."""
    return {
        "count": int(values.size),
        "p50_s": float(np.percentile(values, 50.0)),
        "p95_s": float(np.percentile(values, 95.0)),
    }


def aggregate_snapshots(
    snapshots: Iterable[Dict[str, object]],
    latency_windows: Optional[Iterable[Sequence[float]]] = None,
    stage_windows: Optional[Iterable[Dict[str, Sequence[float]]]] = None,
) -> Dict[str, object]:
    """Hub-level roll-up of several :meth:`ServingStats.snapshot` dicts.

    A multi-model hub reports one stats section per deployment; this sums
    the countable parts across them (requests, hits, batches, engine
    counters) and recomputes the derived rates from the summed counts, so
    ``GET /metrics`` can show whole-process totals next to the per-model
    sections.

    Latency percentiles are **not mergeable from snapshots**: a p95 of
    per-model p95s is a statistic of nothing.  The roll-up is honest about
    it — the ``latency`` section carries ``p50_s``/``p95_s`` of ``None``
    with ``merged_from_raw_windows: false`` unless the caller passes the
    models' *raw* latency windows (``ServingStats.latency_values()``), in
    which case true pooled percentiles are computed over the concatenated
    samples (this is what :meth:`repro.serving.hub.ModelHub.snapshot`
    does).  Per-stage spans follow the same rule: given the raw stage
    windows (``ServingStats.stage_values()``) the roll-up gains a
    ``stages`` section shaped like :meth:`ServingStats.snapshot`'s, pooled
    over every window; without them it has none.
    """
    models = 0
    total_requests = 0
    cache_hits = 0
    shed_requests = 0
    total_batches = 0
    batched_graphs = 0.0
    plans_built = 0
    stacked_forwards = 0
    fanned_folds = 0
    for snapshot in snapshots:
        models += 1
        total_requests += int(snapshot.get("total_requests", 0))
        cache_hits += int(snapshot.get("cache_hits", 0))
        shed_requests += int(snapshot.get("shed_requests", 0))
        batches = int(snapshot.get("total_batches", 0))
        total_batches += batches
        batched_graphs += float(snapshot.get("mean_batch_size", 0.0)) * batches
        engine = snapshot.get("engine") or {}
        plans_built += int(engine.get("plans_built", 0))
        stacked_forwards += int(engine.get("stacked_forwards", 0))
        fanned_folds += int(engine.get("fanned_folds", 0))
    if latency_windows is not None:
        pooled: List[float] = []
        for window in latency_windows:
            pooled.extend(float(value) for value in window)
        samples = np.asarray(pooled, dtype=np.float64) if pooled else None
        latency: Dict[str, object] = {
            "merged_from_raw_windows": True,
            "samples": len(pooled),
            "p50_s": float(np.percentile(samples, 50.0)) if samples is not None else None,
            "p95_s": float(np.percentile(samples, 95.0)) if samples is not None else None,
        }
    else:
        latency = {
            "merged_from_raw_windows": False,
            "samples": None,
            "p50_s": None,
            "p95_s": None,
            "note": (
                "percentiles of different models are not mergeable; pass the "
                "raw latency windows, or read them per model"
            ),
        }
    aggregate: Dict[str, object] = {
        "models": models,
        "total_requests": total_requests,
        "cache_hits": cache_hits,
        "shed_requests": shed_requests,
        "cache_hit_rate": cache_hits / total_requests if total_requests else 0.0,
        "total_batches": total_batches,
        "mean_batch_size": batched_graphs / total_batches if total_batches else 0.0,
        "latency": latency,
        "engine": {
            "plans_built": plans_built,
            "stacked_forwards": stacked_forwards,
            "fanned_folds": fanned_folds,
            "mean_fold_fanout": fanned_folds / plans_built if plans_built else 0.0,
        },
    }
    if stage_windows is not None:
        pooled_stages: Dict[str, List[float]] = {}
        for windows in stage_windows:
            for stage, window in windows.items():
                pooled_stages.setdefault(stage, []).extend(window)
        aggregate["stages"] = {
            stage: _stage_summary(np.asarray(values, dtype=np.float64))
            for stage, values in sorted(pooled_stages.items())
            if values
        }
    return aggregate


class ServingStats:
    """Aggregated counters for a prediction service."""

    def __init__(self, latency_window: int = 4096):
        if latency_window < 1:
            raise ValueError("latency_window must be >= 1")
        self._lock = TrackedLock("stats.counters")
        self._started = time.monotonic()
        self._latency_window = latency_window
        self.total_requests = 0
        self.cache_hits = 0
        # Requests refused by admission control (not counted as served).
        self.shed_requests = 0
        self.total_batches = 0
        self.batched_graphs = 0
        self.batch_histogram: Dict[int, int] = {}
        # Engine telemetry: one ExecutionPlan per forward batch, fanned to
        # ``folds`` members (1 for a single-fold service); ``stacked``
        # forwards ran all folds in one StackedFoldModel sweep.
        self.plans_built = 0
        self.stacked_forwards = 0
        self.fanned_folds = 0
        self._latencies: Deque[float] = deque(maxlen=latency_window)
        # Per-stage span windows (trace layer): stage name -> recent
        # durations, same bounded-window policy as the end-to-end latencies.
        self._stages: Dict[str, Deque[float]] = {}

    # ------------------------------------------------------------- recording
    def record_request(self, latency_s: float, cache_hit: bool) -> None:
        with self._lock:
            self.total_requests += 1
            if cache_hit:
                self.cache_hits += 1
            self._latencies.append(float(latency_s))

    def record_shed(self, count: int = 1) -> None:
        """``count`` requests refused by admission control (HTTP 429s).

        Shed requests never reach the model, so they appear in no latency
        window and no request total — this counter is their only trace."""
        with self._lock:
            self.shed_requests += int(count)

    def record_batch(self, size: int, folds: int = 1, stacked: bool = False) -> None:
        """One engine forward over ``size`` graphs (cache misses only).

        ``folds`` is the fold fan-out of the batch's execution plan — how
        many ensemble members the one plan served; ``stacked`` marks a
        single fold-stacked sweep (vs per-fold fallback loops).
        """
        with self._lock:
            self.total_batches += 1
            self.batched_graphs += size
            self.batch_histogram[size] = self.batch_histogram.get(size, 0) + 1
            self.plans_built += 1
            self.fanned_folds += folds
            if stacked:
                self.stacked_forwards += 1

    def record_stage(self, stage: str, duration_s: float) -> None:
        """One timed span of the predict path (``cache_lookup``, ``infer``,
        ...).

        Stages are recorded at the granularity they were measured — one
        sample per batch for the forward stages, one per call for lookup
        and combine, one per request for the queue wait — so each stage's
        percentiles describe real measured work, not synthetic per-request
        splits.
        """
        with self._lock:
            window = self._stages.get(stage)
            if window is None:
                window = self._stages[stage] = deque(maxlen=self._latency_window)
            window.append(float(duration_s))

    # ------------------------------------------------------------- derived
    @property
    def uptime_s(self) -> float:
        return time.monotonic() - self._started

    @property
    def cache_hit_rate(self) -> float:
        with self._lock:
            total = self.total_requests
            hits = self.cache_hits
        return hits / total if total else 0.0

    @property
    def mean_batch_size(self) -> float:
        with self._lock:
            batches = self.total_batches
            graphs = self.batched_graphs
        return graphs / batches if batches else 0.0

    def qps(self) -> float:
        """Lifetime queries per second."""
        elapsed = self.uptime_s
        with self._lock:
            total = self.total_requests
        return total / elapsed if elapsed > 0 else 0.0

    def latency_percentile(self, percentile: float) -> float:
        """Latency percentile (seconds) over the recent window.

        Edge behaviour is part of the contract:

        * an **empty** window returns ``0.0`` — a service that has served
          nothing has no latency, and callers charting percentiles want a
          plottable number, not an exception;
        * a **one-sample** window returns that sample for *every*
          percentile (p0 == p50 == p100);
        * in between, percentiles interpolate linearly between adjacent
          order statistics (NumPy's default ``linear`` method), so a
          two-sample window's p50 is their midpoint.

        ``percentile`` must be within [0, 100].
        """
        if not 0.0 <= percentile <= 100.0:
            raise ValueError(
                f"percentile must be within [0, 100], got {percentile}"
            )
        with self._lock:
            if not self._latencies:
                return 0.0
            values = np.asarray(self._latencies, dtype=np.float64)
        return float(np.percentile(values, percentile))

    def latency_values(self) -> List[float]:
        """The raw recent-latency window (oldest first).

        This is the honest input for cross-model latency aggregation:
        :func:`aggregate_snapshots` can pool raw windows into true
        whole-process percentiles, which per-model percentiles alone can
        never reconstruct.
        """
        with self._lock:
            return list(self._latencies)

    def stage_values(self) -> Dict[str, List[float]]:
        """The raw per-stage span windows (oldest first), for
        :func:`aggregate_snapshots` to pool across processes."""
        with self._lock:
            return {
                stage: list(window)
                for stage, window in self._stages.items()
                if window
            }

    # -------------------------------------------------------------- export
    def snapshot(self) -> Dict[str, object]:
        """One JSON-friendly view of every metric.

        Every counter is copied under a single lock acquisition, so a
        snapshot taken mid-burst is internally consistent — ``cache_hits``
        can never exceed ``total_requests``, and derived rates are computed
        from the same reads they describe (the property accessors each lock
        separately, which is fine for one value but torn across several).
        """
        with self._lock:
            total_requests = self.total_requests
            cache_hits = self.cache_hits
            shed_requests = self.shed_requests
            total_batches = self.total_batches
            batched_graphs = self.batched_graphs
            plans_built = self.plans_built
            stacked_forwards = self.stacked_forwards
            fanned_folds = self.fanned_folds
            histogram = dict(sorted(self.batch_histogram.items()))
            latencies = (
                np.asarray(self._latencies, dtype=np.float64)
                if self._latencies
                else None
            )
            stage_arrays = {
                stage: np.asarray(window, dtype=np.float64)
                for stage, window in sorted(self._stages.items())
                if window
            }
        elapsed = self.uptime_s
        return {
            "uptime_s": elapsed,
            "total_requests": total_requests,
            "cache_hits": cache_hits,
            "shed_requests": shed_requests,
            "cache_hit_rate": cache_hits / total_requests if total_requests else 0.0,
            "total_batches": total_batches,
            "mean_batch_size": batched_graphs / total_batches if total_batches else 0.0,
            "batch_histogram": histogram,
            "engine": {
                "plans_built": plans_built,
                "stacked_forwards": stacked_forwards,
                "fanned_folds": fanned_folds,
                "mean_fold_fanout": (
                    fanned_folds / plans_built if plans_built else 0.0
                ),
            },
            "qps": total_requests / elapsed if elapsed > 0 else 0.0,
            "latency_p50_s": (
                float(np.percentile(latencies, 50.0)) if latencies is not None else 0.0
            ),
            "latency_p95_s": (
                float(np.percentile(latencies, 95.0)) if latencies is not None else 0.0
            ),
            # Per-stage span percentiles from the trace layer; a stage is
            # present once it has been measured at least once.
            "stages": {
                stage: _stage_summary(values)
                for stage, values in stage_arrays.items()
            },
        }


# ------------------------------------------------------- prometheus export


def _prometheus_escape(value: str) -> str:
    return (
        str(value)
        .replace("\\", "\\\\")
        .replace("\n", "\\n")
        .replace('"', '\\"')
    )


def render_prometheus(metrics: Dict[str, object]) -> str:
    """Text exposition (Prometheus 0.0.4 format) of a ``/metrics`` payload.

    Stdlib-only flattening of the hub metrics JSON: per-model counters and
    latency/stage percentiles become labelled series, the shared
    cache/pool/checkpoint/journal sections become unlabelled gauges.  Only
    numeric leaves are exported — Prometheus has no string samples.
    """
    lines: List[str] = []
    typed: Dict[str, str] = {}

    def emit(name: str, value: object, labels: Optional[Dict[str, str]] = None,
             kind: str = "gauge") -> None:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            return
        if name not in typed:
            typed[name] = kind
            lines.append(f"# TYPE {name} {kind}")
        if labels:
            rendered = ",".join(
                f'{key}="{_prometheus_escape(label)}"'
                for key, label in sorted(labels.items())
            )
            lines.append(f"{name}{{{rendered}}} {float(value):g}")
        else:
            lines.append(f"{name} {float(value):g}")

    def emit_stats(snapshot: Dict[str, object], labels: Dict[str, str]) -> None:
        emit("repro_requests_total", snapshot.get("total_requests"), labels, "counter")
        emit("repro_cache_hits_total", snapshot.get("cache_hits"), labels, "counter")
        emit("repro_shed_total", snapshot.get("shed_requests"), labels, "counter")
        emit("repro_batches_total", snapshot.get("total_batches"), labels, "counter")
        emit("repro_mean_batch_size", snapshot.get("mean_batch_size"), labels)
        emit("repro_qps", snapshot.get("qps"), labels)
        for percentile in ("50", "95"):
            emit(
                "repro_latency_seconds",
                snapshot.get(f"latency_p{percentile}_s"),
                {**labels, "quantile": f"0.{percentile}"},
            )
        for stage, values in (snapshot.get("stages") or {}).items():
            if not isinstance(values, dict):
                continue
            for percentile in ("50", "95"):
                emit(
                    "repro_stage_seconds",
                    values.get(f"p{percentile}_s"),
                    {**labels, "stage": stage, "quantile": f"0.{percentile}"},
                )
        engine = snapshot.get("engine") or {}
        if isinstance(engine, dict):
            emit("repro_plans_built_total", engine.get("plans_built"), labels, "counter")
            emit(
                "repro_stacked_forwards_total",
                engine.get("stacked_forwards"),
                labels,
                "counter",
            )

    hub = metrics.get("hub") or {}
    for model, snapshot in sorted((hub.get("models") or {}).items()):
        if isinstance(snapshot, dict):
            emit_stats(snapshot, {"model": model})
    aggregate = hub.get("aggregate") or {}
    if isinstance(aggregate, dict):
        emit("repro_models", aggregate.get("models"))
        emit_stats(aggregate, {"model": "_aggregate"})
        latency = aggregate.get("latency") or {}
        if isinstance(latency, dict):
            for percentile in ("50", "95"):
                emit(
                    "repro_latency_seconds",
                    latency.get(f"p{percentile}_s"),
                    {"model": "_aggregate", "quantile": f"0.{percentile}"},
                )
    for section in ("cache", "pool", "journal"):
        data = hub.get(section)
        if isinstance(data, dict):
            for key, value in sorted(data.items()):
                emit(f"repro_{section}_{key}", value)
    checkpoint = metrics.get("checkpoint") or hub.get("checkpoint")
    if isinstance(checkpoint, dict):
        for key in ("checkpoints", "skipped", "failures", "last_entries"):
            emit(f"repro_checkpoint_{key}", checkpoint.get(key))
    return "\n".join(lines) + "\n"
