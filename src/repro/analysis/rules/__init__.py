"""Built-in rules for :mod:`repro.analysis`.

Importing this package registers every built-in rule with the engine
(:func:`repro.analysis.engine.register_rule`), so ``all_rules()`` sees
them without any explicit wiring.  Adding a rule is: write a class with
``name``/``description``/``check(project)``, instantiate it here via
``register_rule``, add a fixture under ``tests/fixtures/lint/`` that it
flags, and assert on the fixture in ``tests/test_analysis.py``.

The cross-boundary rules (rpc-parity, pickle-safety, route-registry)
additionally lean on the class/signature index in
:mod:`repro.analysis.walker` — see the package docstring for the recipe.
"""

from ..engine import register_rule
from .api_surface import ApiSurfaceRule
from .lock_discipline import LockDisciplineRule
from .path_hygiene import PathHygieneRule
from .pickle_safety import PickleSafetyRule
from .purity import EnginePurityRule
from .route_registry import RouteRegistryRule
from .rpc_parity import RpcParityRule
from .wire_errors import WireErrorsRule

__all__ = [
    "ApiSurfaceRule",
    "EnginePurityRule",
    "LockDisciplineRule",
    "PathHygieneRule",
    "PickleSafetyRule",
    "RouteRegistryRule",
    "RpcParityRule",
    "WireErrorsRule",
]

for _rule in (
    ApiSurfaceRule,
    EnginePurityRule,
    LockDisciplineRule,
    PathHygieneRule,
    PickleSafetyRule,
    RouteRegistryRule,
    RpcParityRule,
    WireErrorsRule,
):
    register_rule(_rule)
del _rule
