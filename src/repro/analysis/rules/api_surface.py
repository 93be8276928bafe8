"""``api-surface``: ``__all__`` tells the truth.

Every name exported via a module's ``__all__`` must be bound at module
top level (a def, class, assignment, or import).  For package
``__init__`` files a name also counts as bound when a sibling submodule of
that name exists on disk, matching how ``from package import *`` resolves
submodule names.  Duplicate entries are flagged too: they usually mean a
merge went sideways.
"""

from __future__ import annotations

import ast
import os
from typing import List, Optional, Set

from ..engine import Finding
from ..walker import ModuleInfo, Project

def _exported_names(module: ModuleInfo) -> Optional[List[ast.Constant]]:
    for node in module.tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            if isinstance(node.value, (ast.List, ast.Tuple)):
                return [
                    element
                    for element in node.value.elts
                    if isinstance(element, ast.Constant)
                    and isinstance(element.value, str)
                ]
    return None


def _top_level_bindings(module: ModuleInfo) -> Set[str]:
    bound: Set[str] = set()
    for node in module.tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
                elif isinstance(target, (ast.Tuple, ast.List)):
                    for element in target.elts:
                        if isinstance(element, ast.Name):
                            bound.add(element.id)
        elif isinstance(node, ast.AnnAssign):
            if isinstance(node.target, ast.Name):
                bound.add(node.target.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name == "*":
                    continue
                bound.add(alias.asname or alias.name.split(".")[0])
        elif isinstance(node, (ast.If, ast.Try)):
            # typing/compat guards: collect bindings from every branch
            for sub in ast.walk(node):
                if isinstance(
                    sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    bound.add(sub.name)
                elif isinstance(sub, ast.Assign):
                    for target in sub.targets:
                        if isinstance(target, ast.Name):
                            bound.add(target.id)
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    for alias in sub.names:
                        if alias.name != "*":
                            bound.add(alias.asname or alias.name.split(".")[0])
    return bound


def _sibling_submodule_exists(module: ModuleInfo, name: str) -> bool:
    if not module.path.endswith("__init__.py"):
        return False
    package_dir = os.path.dirname(module.path)
    return os.path.isfile(os.path.join(package_dir, f"{name}.py")) or os.path.isdir(
        os.path.join(package_dir, name)
    )


class ApiSurfaceRule:
    name = "api-surface"
    description = "__all__ entries are bound and unique"

    def check(self, project: Project) -> List[Finding]:
        findings: List[Finding] = []
        for module in project.modules:
            exported = _exported_names(module)
            if exported is not None:
                bound = _top_level_bindings(module)
                seen: Set[str] = set()
                for element in exported:
                    name = element.value
                    if name in seen:
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=module.path,
                                line=element.lineno,
                                message=f"duplicate __all__ entry {name!r}",
                            )
                        )
                        continue
                    seen.add(name)
                    if name not in bound and not _sibling_submodule_exists(
                        module, name
                    ):
                        findings.append(
                            Finding(
                                rule=self.name,
                                path=module.path,
                                line=element.lineno,
                                message=(
                                    f"__all__ exports {name!r} but the module "
                                    "never binds it"
                                ),
                            )
                        )
        return findings
