"""Fixture: violates the ``rpc-parity`` rule (never imported).

Drift in every direction the rule checks: an unmirrored hub method, a
supervisor-only method without a MIRROR_EXTRA declaration, an
incompatible signature, a stale exemption, an op the worker never
handles, an op the supervisor never dispatches, an introspection question
with no worker branch, and a dead worker branch.
"""

OP_SUBMIT = "submit"
OP_FORGOTTEN = "forgotten"  # defined; worker never compares against it


class ModelHub:
    def predict(self, name, request):
        return name, request

    def quarantine(self, name, reason="operator request"):
        return name, reason

    def model_health(self, name):
        return name

    def brand_new_admin(self, name):  # no supervisor mirror
        return name


class ReplicaSupervisor:
    MIRROR_EXEMPT = frozenset({"predict"})  # stale: predict IS mirrored
    MIRROR_EXTRA = frozenset()

    def predict(self, name, request):
        self._send(OP_SUBMIT, {"name": name, "request": request})
        self._send(OP_FORGOTTEN, {})

    def quarantine(self, name):  # signature drift: no reason=... default
        return name

    def model_health(self, name):
        self._introspect_one("model_health", {"name": name})
        self._introspect_one("vanish", {"name": name})  # no worker branch

    def replica_status(self):  # supervisor-only, not in MIRROR_EXTRA
        return []

    def _send(self, op, payload):
        return op, payload

    def _introspect_one(self, what, args):
        return what, args


class ReplicaWorker:
    def run(self, op, payload):
        if op == OP_SUBMIT:
            return payload
        return None

    def _introspect(self, what, args):
        if what == "model_health":
            return args
        if what == "ghost":  # dead branch: never dispatched
            return args
        return None
