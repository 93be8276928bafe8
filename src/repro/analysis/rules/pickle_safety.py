"""``pickle-safety``: nothing unpicklable may ride the replica pipe.

Requests, results, and configs cross the supervisor/worker boundary as
pickles.  A type that transitively holds a lock, a thread, an open file,
a lambda, or a generator pickles *sometimes* — it works in the unit test
that never populated the offending attribute and then dies in production
with an opaque ``TypeError: cannot pickle '_thread.lock' object`` from
deep inside the transport.  This rule makes the wire surface explicit
and auditable:

* the transport module declares ``WIRE_TYPES`` — a tuple naming every
  class sent through the pipe RPC; the declaration *is* the contract,
  exactly like the wire error-code registry;
* each declared class (and, transitively, every project class reachable
  through its instance attributes and dataclass field annotations) is
  scanned for unpicklable state: calls to lock/thread/executor/file
  factories, ``lambda``, and generator expressions assigned to
  attributes.

The walk is name-based and conservative: ambiguous class names are
skipped, and only assignments visible in the class body are considered.
The point is catching the easy-to-make mistake — parking a
``threading.Lock()`` on a config object that later rides the pipe — at
lint time instead of under load.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from ..engine import Finding
from ..walker import (
    ClassIndex,
    ClassInfo,
    ModuleInfo,
    Project,
    annotation_names,
    field_annotations,
    imported_names,
    instance_attribute_values,
    terminal_attr,
)

WIRE_DECL = "WIRE_TYPES"

#: call targets whose result must never be pickled.
UNPICKLABLE_FACTORIES = frozenset(
    {
        "Lock",
        "RLock",
        "Condition",
        "Semaphore",
        "BoundedSemaphore",
        "Event",
        "Barrier",
        "Thread",
        "Timer",
        "local",
        "TrackedLock",
        "TrackedRLock",
        "TrackedCondition",
        "ThreadPoolExecutor",
        "ProcessPoolExecutor",
        "open",
        "socket",
        "Queue",
        "SimpleQueue",
        "LifoQueue",
        "PriorityQueue",
        "Future",
        "Popen",
        "memoryview",
    }
)


def _wire_declaration(
    module: ModuleInfo,
) -> Optional[Tuple[int, List[str]]]:
    """The top-level ``WIRE_TYPES = (...)`` declaration as
    ``(line, [class names])`` — plain or annotated assignment."""
    for node in module.tree.body:
        value = None
        if isinstance(node, ast.Assign):
            if any(
                isinstance(t, ast.Name) and t.id == WIRE_DECL for t in node.targets
            ):
                value = node.value
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name) and node.target.id == WIRE_DECL:
                value = node.value
        if value is None:
            continue
        names: List[str] = []
        if isinstance(value, (ast.Tuple, ast.List, ast.Set)):
            for element in value.elts:
                name = terminal_attr(element)
                if name is not None:
                    names.append(name)
        return node.lineno, names
    return None


def _attribute_hazard(value: ast.expr) -> Optional[str]:
    """Why ``value`` cannot be pickled, or ``None`` when it looks safe."""
    for sub in ast.walk(value):
        if isinstance(sub, ast.Lambda):
            return "a lambda (functions pickle by name; lambdas have none)"
        if isinstance(sub, ast.GeneratorExp):
            return "a generator (generators never pickle)"
        if isinstance(sub, ast.Call):
            factory = terminal_attr(sub.func)
            if factory in UNPICKLABLE_FACTORIES:
                return f"{factory}() (process-local state never pickles)"
    return None


def _referenced_classes(value: ast.expr) -> Set[str]:
    """Class names an attribute value might instantiate or hold."""
    names: Set[str] = set()
    for sub in ast.walk(value):
        if isinstance(sub, ast.Call):
            name = terminal_attr(sub.func)
            if name is not None and name[:1].isupper():
                names.add(name)
    return names


class PickleSafetyRule:
    name = "pickle-safety"
    description = (
        "types declared in WIRE_TYPES (the pipe RPC surface) must not "
        "transitively hold locks, threads, files, lambdas, or generators"
    )

    def check(self, project: Project) -> List[Finding]:
        for wire_module in project.modules:
            declaration = _wire_declaration(wire_module)
            if declaration is not None:
                break
        else:
            return []
        decl_line, declared = declaration
        index = ClassIndex(project)
        findings: List[Finding] = []
        seen: Set[str] = set()
        # chain: how we got here, for the finding message.
        queue: List[Tuple[str, Optional[ModuleInfo], Tuple[str, ...]]] = [
            (name, wire_module, ()) for name in declared
        ]
        # A declared name that resolves nowhere is stale — unless the codec
        # module *imports* it, in which case the class merely lives outside
        # the lint scope (a --changed-only subset run) and the import keeps
        # it honest: deleting the class breaks the import at runtime.
        imports = imported_names(wire_module)
        missing = [
            name
            for name in declared
            if index.resolve(name, wire_module) is None
            and index.get(name) is None
            and name not in imports
        ]
        for name in missing:
            findings.append(
                Finding(
                    rule=self.name,
                    path=wire_module.path,
                    line=decl_line,
                    message=(
                        f"{WIRE_DECL} names {name!r} but no project class "
                        "with that name exists — stale declaration"
                    ),
                )
            )
        while queue:
            name, origin, chain = queue.pop()
            if name in seen:
                continue
            seen.add(name)
            info = index.resolve(name, origin)
            if info is None:
                info = index.get(name) if len(index.by_name.get(name, [])) == 1 else None
            if info is None:
                continue  # ambiguous or external: skip rather than guess
            via = " (held via " + " -> ".join(chain + (name,)) + ")" if chain else ""
            findings.extend(self._class_findings(info, via, chain, name, index, queue))
        return findings

    def _class_findings(
        self,
        info: ClassInfo,
        via: str,
        chain: Tuple[str, ...],
        name: str,
        index: ClassIndex,
        queue: List[Tuple[str, Optional[ModuleInfo], Tuple[str, ...]]],
    ) -> List[Finding]:
        findings: List[Finding] = []
        for attr, value, line in instance_attribute_values(info):
            hazard = _attribute_hazard(value)
            if hazard is not None:
                findings.append(
                    Finding(
                        rule=self.name,
                        path=info.module.path,
                        line=line,
                        message=(
                            f"wire type {name}{via} stores {hazard} in "
                            f"self.{attr} — it cannot cross the replica pipe"
                        ),
                    )
                )
                continue
            for ref in _referenced_classes(value):
                queue.append((ref, info.module, chain + (name,)))
        for _field, annotation, _line in field_annotations(info):
            for ref in annotation_names(annotation):
                if ref != name and index.by_name.get(ref):
                    queue.append((ref, info.module, chain + (name,)))
        return findings
