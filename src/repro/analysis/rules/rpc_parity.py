"""``rpc-parity``: the replica pool must stay a faithful hub mirror.

The :class:`~repro.serving.replica.supervisor.ReplicaSupervisor` works by
*duck-typing* the :class:`~repro.serving.hub.ModelHub` surface, and the
pipe protocol works by the supervisor dispatching exactly the ``OP_*``
ops and introspection questions the worker handles.  None of that is
enforced by Python — a new hub method, op constant, or introspection
question silently drifts — so this rule machine-checks the contract
wherever the three anchor classes appear in the linted tree:

* every public ``ModelHub`` method has a ``ReplicaSupervisor`` method of
  the same name and a call-compatible signature (same parameters,
  defaults, and property-ness).  Deliberate one-process-only surface is
  declared on the supervisor class — ``MIRROR_EXEMPT`` names hub methods
  without a mirror, ``MIRROR_EXTRA`` names supervisor-only additions —
  and a declaration that no longer matches reality is itself a finding;
* every ``OP_*`` constant defined next to the transport is dispatched
  somewhere in the ``ReplicaSupervisor`` class and compared against in
  the ``ReplicaWorker`` class — drift in either direction is a finding;
* every introspection question the supervisor asks (the first argument
  of ``_introspect_one(...)``/``_introspect_broadcast(...)`` calls and
  ``{"what": ...}`` literals) is handled by a ``what == "..."`` branch
  worker-side, and vice versa — a dead handler is drift exactly like a
  missing one.  (Admin needs no such check: its one message, ``sync``,
  carries the whole desired state.)
"""

from __future__ import annotations

import ast
from typing import Dict, List, Set, Tuple

from ..engine import Finding
from ..walker import (
    ClassIndex,
    ClassInfo,
    ModuleInfo,
    Project,
    class_string_set,
    public_surface,
    terminal_attr,
)

HUB_CLASS = "ModelHub"
MIRROR_CLASS = "ReplicaSupervisor"
WORKER_CLASS = "ReplicaWorker"
EXEMPT_DECL = "MIRROR_EXEMPT"
EXTRA_DECL = "MIRROR_EXTRA"

#: dispatch helpers whose first string argument names an introspection
#: question.
_INTROSPECT_DISPATCHERS = {"_introspect_one", "_introspect_broadcast"}


def _op_definitions(project: Project) -> Dict[str, Tuple[ModuleInfo, int]]:
    """Top-level ``OP_* = "..."`` constants anywhere in the project."""
    ops: Dict[str, Tuple[ModuleInfo, int]] = {}
    for module in project.modules:
        for node in module.tree.body:
            if not isinstance(node, ast.Assign):
                continue
            if not isinstance(node.value, ast.Constant) or not isinstance(
                node.value.value, str
            ):
                continue
            for target in node.targets:
                if isinstance(target, ast.Name) and target.id.startswith("OP_"):
                    ops.setdefault(target.id, (module, node.lineno))
    return ops


def _op_loads(node: ast.AST) -> Set[str]:
    """``OP_*`` names read (Load context) anywhere under ``node``."""
    return {
        sub.id
        for sub in ast.walk(node)
        if isinstance(sub, ast.Name)
        and isinstance(sub.ctx, ast.Load)
        and sub.id.startswith("OP_")
    }


def _op_compares(node: ast.AST) -> Set[str]:
    """``OP_*`` names used in an equality comparison under ``node``."""
    handled: Set[str] = set()
    for sub in ast.walk(node):
        if not isinstance(sub, ast.Compare):
            continue
        for expr in [sub.left, *sub.comparators]:
            if isinstance(expr, ast.Name) and expr.id.startswith("OP_"):
                handled.add(expr.id)
    return handled


def _dispatched_questions(module: ModuleInfo) -> Dict[str, int]:
    """String literals the supervisor module asks as introspection
    questions: first arguments of the dispatch helpers plus
    ``{"what": "..."}`` literals.  ``{literal: first line}``."""
    dispatched: Dict[str, int] = {}
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            if terminal_attr(node.func) not in _INTROSPECT_DISPATCHERS or not node.args:
                continue
            first = node.args[0]
            if isinstance(first, ast.Constant) and isinstance(first.value, str):
                dispatched.setdefault(first.value, node.lineno)
        elif isinstance(node, ast.Dict):
            for key, value in zip(node.keys, node.values):
                if (
                    isinstance(key, ast.Constant)
                    and key.value == "what"
                    and isinstance(value, ast.Constant)
                    and isinstance(value.value, str)
                ):
                    dispatched.setdefault(value.value, value.lineno)
    return dispatched


def _handled_questions(worker: ClassInfo) -> Dict[str, int]:
    """String literals compared against ``what`` inside the worker class.
    ``{literal: first line}``."""
    handled: Dict[str, int] = {}
    for node in ast.walk(worker.node):
        if not isinstance(node, ast.Compare):
            continue
        exprs = [node.left, *node.comparators]
        if not any(
            isinstance(expr, ast.Name) and expr.id == "what" for expr in exprs
        ):
            continue
        for expr in exprs:
            if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
                handled.setdefault(expr.value, node.lineno)
    return handled


class RpcParityRule:
    name = "rpc-parity"
    description = (
        "the replica supervisor mirrors the hub surface, and every "
        "dispatched op/introspection is handled worker-side (and vice versa)"
    )

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        index = ClassIndex(project)
        hub = index.get(HUB_CLASS)
        mirror = index.get(MIRROR_CLASS)
        worker = index.get(WORKER_CLASS)
        if hub is not None and mirror is not None:
            findings.extend(self._surface_findings(hub, mirror))
        if mirror is not None and worker is not None:
            findings.extend(self._op_findings(project, mirror, worker))
            findings.extend(self._question_findings(mirror, worker))
        return findings

    # -------------------------------------------------------- hub mirroring
    def _surface_findings(self, hub: ClassInfo, mirror: ClassInfo) -> List[Finding]:
        findings: List[Finding] = []
        hub_surface = public_surface(hub)
        mirror_surface = public_surface(mirror)
        exempt_decl = class_string_set(mirror, EXEMPT_DECL)
        extra_decl = class_string_set(mirror, EXTRA_DECL)
        exempt = exempt_decl[1] if exempt_decl else set()
        extra = extra_decl[1] if extra_decl else set()

        hub_methods = hub.methods()
        for name in sorted(hub_surface):
            if name in mirror_surface or name in exempt:
                continue
            findings.append(
                Finding(
                    rule=self.name,
                    path=hub.module.path,
                    line=hub_methods[name].lineno,
                    message=(
                        f"public {HUB_CLASS} method {name!r} has no "
                        f"{MIRROR_CLASS} mirror — add one, or declare it in "
                        f"{MIRROR_CLASS}.{EXEMPT_DECL}"
                    ),
                )
            )
        mirror_methods = mirror.methods()
        for name in sorted(mirror_surface):
            if name in hub_surface or name in extra:
                continue
            findings.append(
                Finding(
                    rule=self.name,
                    path=mirror.module.path,
                    line=mirror_methods[name].lineno,
                    message=(
                        f"public {MIRROR_CLASS} method {name!r} does not exist "
                        f"on {HUB_CLASS} — callers routed through the hub lose "
                        f"it; declare it in {MIRROR_CLASS}.{EXTRA_DECL} if "
                        "supervisor-only"
                    ),
                )
            )
        for name in sorted(hub_surface.keys() & mirror_surface.keys()):
            hub_sig = hub_surface[name]
            mirror_sig = mirror_surface[name]
            if not hub_sig.compatible_with(mirror_sig):
                findings.append(
                    Finding(
                        rule=self.name,
                        path=mirror.module.path,
                        line=mirror_methods[name].lineno,
                        message=(
                            f"{MIRROR_CLASS}.{mirror_sig.render()} is not "
                            f"call-compatible with {HUB_CLASS}."
                            f"{hub_sig.render()}"
                        ),
                    )
                )
        # Declarations that no longer match reality rot exactly like
        # waiver pragmas do — keep them honest.
        if exempt_decl is not None:
            for name in sorted(exempt):
                if name not in hub_surface or name in mirror_surface:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=mirror.module.path,
                            line=exempt_decl[0],
                            message=(
                                f"stale {EXEMPT_DECL} entry {name!r}: it must "
                                f"name a public {HUB_CLASS} method that "
                                f"{MIRROR_CLASS} does not implement"
                            ),
                        )
                    )
        if extra_decl is not None:
            for name in sorted(extra):
                if name not in mirror_surface or name in hub_surface:
                    findings.append(
                        Finding(
                            rule=self.name,
                            path=mirror.module.path,
                            line=extra_decl[0],
                            message=(
                                f"stale {EXTRA_DECL} entry {name!r}: it must "
                                f"name a public {MIRROR_CLASS} method that "
                                f"{HUB_CLASS} does not implement"
                            ),
                        )
                    )
        return findings

    # ------------------------------------------------------------ op parity
    def _op_findings(
        self, project: Project, mirror: ClassInfo, worker: ClassInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        dispatched = _op_loads(mirror.node)
        handled = _op_compares(worker.node)
        for op, (module, line) in sorted(_op_definitions(project).items()):
            if op not in dispatched:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=module.path,
                        line=line,
                        message=(
                            f"op constant {op} is defined but never dispatched "
                            f"by {MIRROR_CLASS}"
                        ),
                    )
                )
            if op not in handled:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=module.path,
                        line=line,
                        message=(
                            f"op constant {op} is never handled by "
                            f"{WORKER_CLASS}'s request loop — a dispatch "
                            "would come back as an unknown-op error"
                        ),
                    )
                )
        return findings

    # ------------------------------------------------ introspection parity
    def _question_findings(
        self, mirror: ClassInfo, worker: ClassInfo
    ) -> List[Finding]:
        findings: List[Finding] = []
        dispatched = _dispatched_questions(mirror.module)
        handled = _handled_questions(worker)
        if not dispatched and not handled:
            return findings
        for literal, line in sorted(dispatched.items()):
            if literal not in handled:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=mirror.module.path,
                        line=line,
                        message=(
                            f"introspection {literal!r} is dispatched "
                            f"supervisor-side but {WORKER_CLASS}._introspect "
                            "has no branch for it"
                        ),
                    )
                )
        for literal, line in sorted(handled.items()):
            if literal not in dispatched:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=worker.module.path,
                        line=line,
                        message=(
                            f"introspection {literal!r} is handled by "
                            f"{WORKER_CLASS}._introspect but never dispatched "
                            "supervisor-side — dead protocol surface"
                        ),
                    )
                )
        return findings
