"""HTTP wire-protocol overhead: in-process vs over-the-socket QPS.

Puts a trained fold predictor behind :class:`PredictionHTTPServer` and
replays a burst of real region graphs three ways: in-process
``predict_many``, one HTTP request per graph (persistent connection,
riding the micro-batcher), and one HTTP batch body.  The QPS numbers and
the wire-overhead ratio land in the benchmark JSON via
``benchmark.extra_info`` and in ``BENCH_serving.json`` via the recording
hook in ``conftest.py``.
"""

import http.client
import json
import time

import pytest

from repro.graphs import GraphBuilder
from repro.serving import (
    BatchingConfig,
    ModelHub,
    PredictionHTTPServer,
    PredictionService,
    program_graph_to_dict,
)
from repro.workloads import build_suite

BURST = 32
ROUNDS = 3


@pytest.fixture(scope="module")
def http_setup(pipeline, skylake_evaluation):
    predictor = skylake_evaluation.folds[0].predictor
    builder = GraphBuilder()
    regions = build_suite()
    graphs = [builder.build_module(region.module) for region in regions]
    burst = [graphs[i % len(graphs)] for i in range(BURST)]
    wire_burst = [program_graph_to_dict(graph) for graph in burst]
    return predictor, burst, wire_burst


def _service(predictor):
    return PredictionService(
        model=predictor.model,
        encoder=predictor.encoder,
        batching=BatchingConfig(max_batch_size=BURST, max_delay_s=0.001),
    )


def _post(connection, path, payload):
    body = json.dumps(payload).encode("utf-8")
    connection.request(
        "POST", path, body=body, headers={"Content-Type": "application/json"}
    )
    response = connection.getresponse()
    assert response.status == 200, response.read()[:500]
    return json.loads(response.read())


def test_http_vs_in_process_throughput(benchmark, http_setup):
    predictor, burst, wire_burst = http_setup

    in_process = _service(predictor)
    in_process_elapsed = float("inf")
    expected = None
    for _ in range(ROUNDS):
        round_start = time.perf_counter()
        expected = [r.label for r in in_process.predict_many(burst)]
        in_process_elapsed = min(in_process_elapsed, time.perf_counter() - round_start)
    in_process_qps = len(burst) / in_process_elapsed

    # The hand-built service, alone in a cache-less hub.
    hub = ModelHub(enable_cache=False)
    hub.adopt("default", _service(predictor))
    with PredictionHTTPServer(hub) as server:
        connection = http.client.HTTPConnection(server.host, server.port, timeout=60)
        try:

            def http_singles():
                return [
                    _post(connection, "/v1/predict", {"graph": wire})["result"]["label"]
                    for wire in wire_burst
                ]

            http_labels = benchmark.pedantic(http_singles, rounds=ROUNDS, iterations=1)
            singles_elapsed = benchmark.stats.stats.min
            http_qps = len(burst) / singles_elapsed

            batch_elapsed = float("inf")
            batch_labels = None
            for _ in range(ROUNDS):
                round_start = time.perf_counter()
                response = _post(connection, "/v1/predict", {"graphs": wire_burst})
                batch_elapsed = min(batch_elapsed, time.perf_counter() - round_start)
                batch_labels = [r["label"] for r in response["results"]]
            http_batch_qps = len(burst) / batch_elapsed
        finally:
            connection.close()

    overhead = in_process_qps / http_batch_qps
    benchmark.extra_info["in_process_qps"] = round(in_process_qps, 1)
    benchmark.extra_info["http_qps"] = round(http_qps, 1)
    benchmark.extra_info["http_batch_qps"] = round(http_batch_qps, 1)
    benchmark.extra_info["http_wire_overhead"] = round(overhead, 2)
    print(
        f"\nHTTP serving ({BURST}-request burst): in-process {in_process_qps:.0f} QPS, "
        f"HTTP single {http_qps:.0f} QPS, HTTP batch {http_batch_qps:.0f} QPS "
        f"(wire overhead {overhead:.2f}x on the batch path)"
    )

    # The wire protocol must not change a single answer.
    assert http_labels == expected
    assert batch_labels == expected
    # Sanity floor: batching over HTTP must stay within 10x of in-process.
    assert overhead < 10.0
