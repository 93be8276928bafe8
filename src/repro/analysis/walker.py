"""Shared AST infrastructure for the :mod:`repro.analysis` rules.

Every rule consumes the same pre-parsed view of the code base — a list of
:class:`ModuleInfo` records (path, dotted module name, AST, raw source
lines) bundled into one :class:`Project` — so the source tree is read and
parsed exactly once per lint run, no matter how many rules inspect it.

The helpers here are the vocabulary the rules share:

* :func:`dotted_name` — the ``a.b.c`` source text of a ``Name``/
  ``Attribute`` chain (``None`` for anything dynamic);
* :func:`lock_attribute_names` — attribute names assigned from a lock
  factory (``threading.Lock``/``Condition`` or the tracked wrappers in
  :mod:`repro.concurrency`) anywhere in the project;
* :func:`walk_body` — ``ast.walk`` that does **not** descend into nested
  function/class definitions, for "lexically inside this block" queries;
* :class:`MethodIndex` — a name-based call-graph approximation: which
  functions are reachable from a set of entry methods, resolving calls by
  method name across a chosen module set (conservative, no type
  inference — exactly right for "nothing reachable from ``infer()`` may
  mutate ``self``");
* :class:`ClassIndex` — every top-level class by name, with
  conservative name resolution, feeding the cross-boundary contract
  rules (RPC payload types are audited transitively);
* :func:`method_signature` / :func:`public_surface` — the public method
  surface of a class as comparable :class:`MethodSignature` records, for
  "this class must mirror that one" checks;
* :func:`instance_attribute_values` / :func:`field_annotations` /
  :func:`annotation_names` — attribute-type extraction for the pickle
  rule.
"""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple

#: constructors whose result is a lock (or lock-like condition) object.
LOCK_FACTORIES = {
    "Lock",
    "RLock",
    "Condition",
    "TrackedLock",
    "TrackedRLock",
    "TrackedCondition",
}


@dataclass
class ModuleInfo:
    """One parsed source file plus everything the rules need to cite it."""

    path: str
    name: str
    tree: ast.Module
    source: str
    lines: List[str] = field(default_factory=list)

    def line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


@dataclass
class Project:
    """Everything one lint run looks at."""

    modules: List[ModuleInfo]
    #: nearest enclosing directory holding a ``pyproject.toml`` (the repo
    #: root), used by rules that cross-reference ``tests/``.
    root: Optional[str]

    def module_by_suffix(self, suffix: str) -> List[ModuleInfo]:
        normalised = suffix.replace("\\", "/")
        return [
            module
            for module in self.modules
            if module.path.replace("\\", "/").endswith(normalised)
        ]


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted list of ``.py`` files."""
    found: List[str] = []
    for path in paths:
        if os.path.isdir(path):
            for dirpath, dirnames, filenames in os.walk(path):
                dirnames[:] = sorted(
                    name
                    for name in dirnames
                    if name not in {"__pycache__", ".git", ".venv"}
                )
                for filename in sorted(filenames):
                    if filename.endswith(".py"):
                        found.append(os.path.join(dirpath, filename))
        elif path.endswith(".py"):
            found.append(path)
    return sorted(dict.fromkeys(os.path.abspath(path) for path in found))


def module_name_for(path: str) -> str:
    """Dotted module name inferred from the package layout on disk."""
    path = os.path.abspath(path)
    parts = [os.path.splitext(os.path.basename(path))[0]]
    directory = os.path.dirname(path)
    while os.path.isfile(os.path.join(directory, "__init__.py")):
        parts.append(os.path.basename(directory))
        directory = os.path.dirname(directory)
    if parts[0] == "__init__":
        parts = parts[1:] or parts
    return ".".join(reversed(parts))


def find_repo_root(path: str) -> Optional[str]:
    """Nearest ancestor directory containing a ``pyproject.toml``."""
    directory = os.path.abspath(path)
    if os.path.isfile(directory):
        directory = os.path.dirname(directory)
    while True:
        if os.path.isfile(os.path.join(directory, "pyproject.toml")):
            return directory
        parent = os.path.dirname(directory)
        if parent == directory:
            return None
        directory = parent


def load_module(path: str) -> ModuleInfo:
    """Parse one file (raises :class:`SyntaxError` on unparsable source)."""
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    tree = ast.parse(source, filename=path)
    return ModuleInfo(
        path=os.path.abspath(path),
        name=module_name_for(path),
        tree=tree,
        source=source,
        lines=source.splitlines(),
    )


def load_project(paths: Sequence[str]) -> Tuple[Project, List[Tuple[str, SyntaxError]]]:
    """Parse every file under ``paths``; unparsable files are returned
    separately (the engine reports them as findings, not a crash)."""
    modules: List[ModuleInfo] = []
    failures: List[Tuple[str, SyntaxError]] = []
    for path in iter_python_files(paths):
        try:
            modules.append(load_module(path))
        except SyntaxError as exc:
            failures.append((path, exc))
    root = find_repo_root(modules[0].path) if modules else None
    return Project(modules=modules, root=root), failures


# ------------------------------------------------------------------ helpers


def dotted_name(node: ast.AST) -> Optional[str]:
    """``a.b.c`` for a Name/Attribute chain; ``None`` for dynamic bases."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def terminal_attr(node: ast.AST) -> Optional[str]:
    """The final attribute of a call target (``c`` in ``a.b.c``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


def imported_names(module: ModuleInfo) -> Set[str]:
    """Every name bound by an ``import``/``from ... import`` in the module
    (the as-name when aliased).  Lets cross-boundary rules distinguish "this
    name exists outside the lint scope" from "this name exists nowhere" when
    only a subset of the project is being linted (``--changed-only``)."""
    names: Set[str] = set()
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                names.add(alias.asname or alias.name)
    return names


def walk_body(nodes: Iterable[ast.AST]) -> Iterator[ast.AST]:
    """Walk statements without descending into nested def/class/lambda —
    "lexically inside this block" for lock-region queries."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        for child in ast.iter_child_nodes(node):
            if isinstance(
                child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
            ):
                continue
            stack.append(child)


def lock_attribute_names(project: Project) -> Set[str]:
    """Attribute names bound to a lock factory anywhere in the project
    (``self._lock = threading.Lock()`` → ``_lock``)."""
    names: Set[str] = set()
    for module in project.modules:
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Assign):
                continue
            value = node.value
            if not isinstance(value, ast.Call):
                continue
            factory = terminal_attr(value.func)
            if factory not in LOCK_FACTORIES:
                continue
            for target in node.targets:
                if isinstance(target, ast.Attribute):
                    names.add(target.attr)
                elif isinstance(target, ast.Name):
                    names.add(target.id)
    return names


@dataclass(frozen=True)
class FunctionRef:
    """One function/method definition, addressable for reachability."""

    module: str
    qualname: str  # "ClassName.method" or "function"
    node: ast.AST  # FunctionDef


class MethodIndex:
    """Name-based call-graph over a module set.

    Resolution is deliberately conservative: ``self.m(...)`` resolves to
    ``m`` on the same class, ``anything.m(...)`` resolves to *every*
    method named ``m`` in the indexed modules, and a bare ``f(...)``
    resolves to every module-level ``f``.  No type inference — which is
    the right bias for an invariant checker: an over-approximate
    reachable set can only make the purity rule stricter, never blind.
    """

    def __init__(self, modules: Iterable[ModuleInfo]):
        self.functions: List[FunctionRef] = []
        self.by_method_name: Dict[str, List[FunctionRef]] = {}
        self.by_class: Dict[Tuple[str, str], Dict[str, FunctionRef]] = {}
        self.module_level: Dict[str, List[FunctionRef]] = {}
        for module in modules:
            for node in module.tree.body:
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    ref = FunctionRef(module.name, node.name, node)
                    self.functions.append(ref)
                    self.module_level.setdefault(node.name, []).append(ref)
                elif isinstance(node, ast.ClassDef):
                    methods: Dict[str, FunctionRef] = {}
                    for item in node.body:
                        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                            ref = FunctionRef(
                                module.name, f"{node.name}.{item.name}", item
                            )
                            self.functions.append(ref)
                            methods[item.name] = ref
                            self.by_method_name.setdefault(item.name, []).append(ref)
                    self.by_class[(module.name, node.name)] = methods

    def reachable_from(self, entries: Iterable[FunctionRef]) -> List[FunctionRef]:
        """Every function transitively callable from ``entries``."""
        seen: Dict[Tuple[str, str], FunctionRef] = {}
        queue = list(entries)
        for ref in queue:
            seen[(ref.module, ref.qualname)] = ref
        while queue:
            ref = queue.pop()
            for callee in self._callees(ref):
                key = (callee.module, callee.qualname)
                if key not in seen:
                    seen[key] = callee
                    queue.append(callee)
        return list(seen.values())

    def _callees(self, ref: FunctionRef) -> List[FunctionRef]:
        callees: List[FunctionRef] = []
        class_name = ref.qualname.split(".")[0] if "." in ref.qualname else None
        for node in ast.walk(ref.node):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Attribute):
                receiver = func.value
                if (
                    isinstance(receiver, ast.Name)
                    and receiver.id == "self"
                    and class_name is not None
                ):
                    own = self.by_class.get((ref.module, class_name), {})
                    if func.attr in own:
                        callees.append(own[func.attr])
                        continue
                callees.extend(self.by_method_name.get(func.attr, []))
            elif isinstance(func, ast.Name):
                callees.extend(self.module_level.get(func.id, []))
        return callees


# ------------------------------------------------------- class/signature index


@dataclass(frozen=True)
class MethodSignature:
    """The comparable shape of one method definition.

    ``params`` excludes the ``self``/``cls`` receiver; ``defaults`` counts
    trailing positional defaults, so two signatures are call-compatible
    exactly when these fields agree.
    """

    name: str
    params: Tuple[str, ...]
    defaults: int
    kwonly: Tuple[str, ...]
    vararg: bool
    kwarg: bool
    is_property: bool

    def compatible_with(self, other: "MethodSignature") -> bool:
        return (
            self.params == other.params
            and self.defaults == other.defaults
            and self.kwonly == other.kwonly
            and self.vararg == other.vararg
            and self.kwarg == other.kwarg
            and self.is_property == other.is_property
        )

    def render(self) -> str:
        if self.is_property:
            return f"{self.name} (property)"
        parts = list(self.params)
        for offset in range(self.defaults):
            index = len(parts) - self.defaults + offset
            parts[index] = f"{parts[index]}=..."
        if self.vararg:
            parts.append("*args")
        elif self.kwonly:
            parts.append("*")
        parts.extend(self.kwonly)
        if self.kwarg:
            parts.append("**kwargs")
        return f"{self.name}({', '.join(parts)})"


@dataclass
class ClassInfo:
    """One top-level class definition, addressable across the project."""

    module: ModuleInfo
    node: ast.ClassDef
    name: str

    def methods(self) -> Dict[str, ast.AST]:
        found: Dict[str, ast.AST] = {}
        for item in self.node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.setdefault(item.name, item)
        return found


class ClassIndex:
    """Top-level classes by name.

    Like :class:`MethodIndex`, resolution is deliberately conservative
    and type-inference free (see :meth:`resolve`).
    """

    def __init__(self, project: Project):
        self.by_name: Dict[str, List[ClassInfo]] = {}
        for module in project.modules:
            for node in module.tree.body:
                if not isinstance(node, ast.ClassDef):
                    continue
                self.by_name.setdefault(node.name, []).append(
                    ClassInfo(module=module, node=node, name=node.name)
                )
        for infos in self.by_name.values():
            infos.sort(key=lambda info: info.module.path)

    def get(self, name: str) -> Optional[ClassInfo]:
        infos = self.by_name.get(name)
        return infos[0] if infos else None

    def resolve(self, name: str, module: Optional[ModuleInfo] = None) -> Optional[ClassInfo]:
        """The class ``name`` refers to — same-module definitions win;
        an ambiguous cross-module name resolves to nothing rather than
        guessing (rules must stay false-positive free on the real tree)."""
        infos = self.by_name.get(name)
        if not infos:
            return None
        if module is not None:
            for info in infos:
                if info.module.path == module.path:
                    return info
        return infos[0] if len(infos) == 1 else None


def method_signature(node: ast.AST) -> MethodSignature:
    """The comparable :class:`MethodSignature` of one def node."""
    args = node.args
    params = tuple(arg.arg for arg in list(args.posonlyargs) + list(args.args))
    if params and params[0] in ("self", "cls"):
        params = params[1:]
    is_property = any(
        terminal_attr(decorator) == "property" for decorator in node.decorator_list
    )
    return MethodSignature(
        name=node.name,
        params=params,
        defaults=len(args.defaults),
        kwonly=tuple(arg.arg for arg in args.kwonlyargs),
        vararg=args.vararg is not None,
        kwarg=args.kwarg is not None,
        is_property=is_property,
    )


def public_surface(info: ClassInfo) -> Dict[str, MethodSignature]:
    """``{name: signature}`` for every public method (no leading ``_``)."""
    return {
        name: method_signature(node)
        for name, node in info.methods().items()
        if not name.startswith("_")
    }


def class_string_set(info: ClassInfo, attribute: str) -> Optional[Tuple[int, Set[str]]]:
    """A class-level ``ATTRIBUTE = frozenset({...})``-style declaration:
    ``(line, {string members})``, or ``None`` when undeclared."""
    for item in info.node.body:
        if not isinstance(item, ast.Assign):
            continue
        if not any(
            isinstance(target, ast.Name) and target.id == attribute
            for target in item.targets
        ):
            continue
        members = {
            sub.value
            for sub in ast.walk(item.value)
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str)
        }
        return item.lineno, members
    return None


def instance_attribute_values(info: ClassInfo) -> List[Tuple[str, ast.expr, int]]:
    """``(attr, value, line)`` for every ``self.<attr> = <value>`` in any
    method of the class."""
    out: List[Tuple[str, ast.expr, int]] = []
    for method in info.methods().values():
        for sub in ast.walk(method):
            if isinstance(sub, ast.Assign):
                targets, value = sub.targets, sub.value
            elif isinstance(sub, ast.AnnAssign) and sub.value is not None:
                targets, value = [sub.target], sub.value
            else:
                continue
            for target in targets:
                if (
                    isinstance(target, ast.Attribute)
                    and isinstance(target.value, ast.Name)
                    and target.value.id == "self"
                ):
                    out.append((target.attr, value, sub.lineno))
    return out


def field_annotations(info: ClassInfo) -> List[Tuple[str, ast.expr, int]]:
    """``(field, annotation, line)`` for class-body annotated fields —
    the dataclass field inventory."""
    return [
        (item.target.id, item.annotation, item.lineno)
        for item in info.node.body
        if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
    ]


def annotation_names(node: ast.expr) -> Set[str]:
    """Every terminal name mentioned by a type annotation, unwrapping
    subscripts (``Optional[List[Node]]`` → ``Optional, List, Node``) and
    string forward references."""
    names: Set[str] = set()
    stack: List[ast.AST] = [node]
    while stack:
        current = stack.pop()
        for sub in ast.walk(current):
            if isinstance(sub, ast.Name):
                names.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                names.add(sub.attr)
            elif isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                try:
                    stack.append(ast.parse(sub.value, mode="eval").body)
                except SyntaxError:
                    continue
    return names
