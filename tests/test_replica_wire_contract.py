"""The replica wire contract, end to end.

Two halves of the same promise:

* every exception class the serving stack defines round-trips through
  the exception codec as the *same* class with the same message and the
  same instance attributes (``retry_after_s`` survives for admission
  sheds) — the supervisor re-raises what the worker raised, not a
  lookalike — and an exception that cannot make the trip arrives as a
  server-side failure, never as a client-facing hub error;
* the HTTP layer cannot tell the difference: an exception that crossed
  the replica pipe maps to exactly the status, error code, and headers
  the in-process exception maps to.  This is the invariant that makes
  replica serving a drop-in deployment change rather than an API change.

The classes are discovered by walking ``repro.serving``, so a new
exception type is covered the moment it exists.
"""

import importlib
import inspect
import pickle
import pkgutil

import pytest

import repro.serving
from repro.serving.costmodel import CalibrationError, OverCapacityError
from repro.serving.http import RequestError, ServingApp
from repro.serving.hub import ModelHub
from repro.serving.journal import JournalError
from repro.serving.registry import ArtifactIntegrityError
from repro.serving.replica.transport import (
    WIRE_TYPES,
    RemoteWorkerError,
    decode_exception,
    encode_exception,
)


def serving_exception_classes():
    """Every exception class defined in a ``repro.serving`` module."""
    found = {}
    for info in pkgutil.walk_packages(repro.serving.__path__, "repro.serving."):
        module = importlib.import_module(info.name)
        for _, obj in inspect.getmembers(module, inspect.isclass):
            if issubclass(obj, BaseException) and obj.__module__ == module.__name__:
                found[f"{obj.__module__}.{obj.__qualname__}"] = obj
    return [found[key] for key in sorted(found)]


SERVING_EXCEPTIONS = serving_exception_classes()
SERVING_IDS = [cls.__qualname__ for cls in SERVING_EXCEPTIONS]


def make_instance(exc_type):
    if exc_type is OverCapacityError:
        return exc_type("admission budget exhausted", retry_after_s=2.5)
    if exc_type is RequestError:
        return exc_type(400, "invalid-request", "bad body", {"X-Reason": "test"})
    return exc_type("boom across the pipe")


class TwoArgumentError(Exception):
    """Importable, but its ``__init__`` cannot be fed its own ``args``."""

    def __init__(self, model, detail):
        super().__init__(f"{model}: {detail}")


def local_exception():
    class LocalError(RuntimeError):
        """Defined inside a function: pickle cannot reach it by name."""

    return LocalError("worker-local failure")


class TestCodecRoundTrip:
    def test_discovery_finds_the_serving_exceptions(self):
        names = set(SERVING_IDS)
        assert {
            "HubError",
            "DeploymentNotFoundError",
            "OverCapacityError",
            "ArtifactNotFoundError",
            "ReplicaUnavailableError",
            "RequestError",
        } <= names

    @pytest.mark.parametrize("exc_type", SERVING_EXCEPTIONS, ids=SERVING_IDS)
    def test_every_serving_exception_round_trips_as_itself(self, exc_type):
        exc = make_instance(exc_type)
        decoded = decode_exception(encode_exception(exc))
        assert type(decoded) is exc_type
        assert str(decoded) == str(exc)
        assert decoded.args == exc.args
        assert vars(decoded) == vars(exc)

    def test_retry_after_survives_the_pipe(self):
        exc = OverCapacityError("shed", retry_after_s=2.5)
        decoded = decode_exception(encode_exception(exc))
        assert isinstance(decoded, OverCapacityError)
        assert decoded.retry_after_s == pytest.approx(2.5)

    @pytest.mark.parametrize(
        "exc",
        [local_exception(), TwoArgumentError("demo", "weights torn")],
        ids=["local-class", "two-required-args"],
    )
    def test_unrebuildable_exception_becomes_a_server_failure(self, exc):
        payload = encode_exception(exc)
        pickle.dumps(payload)  # the reply itself always crosses the pipe
        decoded = decode_exception(payload)
        assert type(decoded) is RemoteWorkerError
        assert str(exc) in str(decoded)
        assert type(exc).__name__ in str(decoded)

    def test_garbage_payload_decodes_instead_of_raising(self):
        # The supervisor's pipe reader must survive any payload.
        for payload in ({}, {"pickled": b"not a pickle"}, None):
            assert isinstance(decode_exception(payload), RemoteWorkerError)

    def test_wire_types_are_declared_and_importable(self):
        # The pickle-safety lint rule audits these classes; the tuple
        # itself must stay non-empty and hold real types.
        assert WIRE_TYPES
        assert all(isinstance(entry, type) for entry in WIRE_TYPES)


#: exceptions a worker raises without meaning to: in-process each is a
#: 500, and across the pipe it must stay one.
UNEXPECTED = [
    RuntimeError("worker exploded"),
    ValueError("bad shape"),
    ArtifactIntegrityError("digest mismatch"),
    CalibrationError("too few batches"),
    JournalError("segment torn"),
    local_exception(),
    TwoArgumentError("demo", "weights torn"),
]


class TestHttpStatusParity:
    def _response_for(self, exc):
        app = ServingApp(ModelHub(enable_cache=False))

        def view(body):
            raise exc

        app._route = lambda path, query=None: {"GET": view}
        return app.handle("GET", "/healthz")

    def _assert_parity(self, local):
        remote = decode_exception(encode_exception(local))
        local_status, local_payload, local_headers = self._response_for(local)
        remote_status, remote_payload, remote_headers = self._response_for(remote)
        assert remote_status == local_status
        assert (
            remote_payload["error"]["code"] == local_payload["error"]["code"]
        )
        assert remote_headers == local_headers
        return remote_status, remote_payload

    @pytest.mark.parametrize("exc_type", SERVING_EXCEPTIONS, ids=SERVING_IDS)
    def test_remote_error_maps_to_same_response_as_local(self, exc_type):
        self._assert_parity(make_instance(exc_type))

    @pytest.mark.parametrize(
        "exc", UNEXPECTED, ids=[type(exc).__name__ for exc in UNEXPECTED]
    )
    def test_unexpected_worker_error_is_a_500_on_both_sides(self, exc):
        status, payload = self._assert_parity(exc)
        assert status == 500
        assert payload["error"]["code"] == "internal"

    def test_over_capacity_keeps_retry_after_header_across_the_pipe(self):
        exc = decode_exception(
            encode_exception(OverCapacityError("shed", retry_after_s=2.5))
        )
        status, payload, headers = self._response_for(exc)
        assert status == 429
        assert payload["error"]["code"] == "over-capacity"
        assert "Retry-After" in headers
