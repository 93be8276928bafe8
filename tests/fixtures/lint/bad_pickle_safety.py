"""Fixture: violates the ``pickle-safety`` rule (never imported).

``WIRE_TYPES`` declares a config class that parks a lock on itself, a
result class that transitively drags in a handle-holding helper, a
class smuggling a lambda, and a name that resolves to nothing.
"""

import threading

WIRE_TYPES = (
    WireConfig,
    WireResult,
    WireCallback,
    GhostType,  # no such class anywhere: stale declaration
)


class WireConfig:
    def __init__(self, root):
        self.root = root
        self._guard = threading.Lock()  # process-local: never pickles


class SpanRecorder:
    def __init__(self, path):
        self._handle = open(path, "a")  # file handle: never pickles


class WireResult:
    def __init__(self, values, journal_path):
        self.values = list(values)
        self.recorder = SpanRecorder(journal_path)  # hazard held via chain


class WireCallback:
    def __init__(self, scale):
        self.transform = lambda value: value * scale  # lambdas never pickle
