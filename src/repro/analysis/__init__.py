"""Correctness tooling: a project-invariant linter for the repro code base.

This package is the static half of the correctness gate (the runtime half
is :mod:`repro.concurrency`, enabled with ``REPRO_LOCK_CHECK=1``).  It is
not a style checker — every rule encodes an invariant this project relies
on for correct results, and CI fails when one is violated.

The rules
---------

``lock-discipline``
    No blocking operation (file/socket I/O, ``time.sleep``, subprocess
    spawns, thread joins, bounded-queue puts, serialisation dumps) may
    execute while a lock is held, and lexically nested acquisitions must
    not form a lock-order cycle anywhere in the project.  Mirrors the
    runtime graph built by :mod:`repro.concurrency`.

``engine-purity``
    Nothing reachable from any ``infer()`` call graph may mutate
    ``self`` — inference is shared across batcher threads and replayed
    from the prediction journal, so it must be deterministic and
    side-effect free.

``wire-errors``
    Every structured error code raised by the serving HTTP layer is
    unique, documented in its module's ``ERROR_CODES`` registry, actually
    raised, and referenced by at least one test.

``path-hygiene``
    No ``str()`` coercion or object-interpolating f-string may feed a
    filesystem call; ``os.fspath()`` raises on non-path objects where
    ``str()`` would happily mint a repr-named directory.

``api-surface``
    ``__all__`` entries are bound and unique.

``rpc-parity``
    The replica pool stays a faithful hub mirror: every public
    ``ModelHub`` method has a call-compatible ``ReplicaSupervisor``
    counterpart (deliberate gaps declared in ``MIRROR_EXEMPT`` /
    ``MIRROR_EXTRA`` on the supervisor class, themselves audited for
    staleness), and every ``OP_*`` constant and introspection question
    dispatched supervisor-side is handled worker-side — and vice versa,
    so dead protocol surface is drift too.

``pickle-safety``
    The pipe RPC surface is declared in ``WIRE_TYPES`` next to the
    codec, and each declared class (transitively, through instance
    attributes and dataclass field annotations) is free of process-local
    state — locks, threads, executors, open files, lambdas, generators —
    that would explode inside a pickle call under load.

``route-registry``
    Every route the HTTP dispatcher serves is declared in the
    ``ROUTES`` table in :mod:`repro.serving.http` with a non-empty
    description, every table entry is actually served, and every route
    template is referenced by at least one test — the ``wire-errors``
    registry idiom extended to the URL surface.

Adding a cross-boundary rule
----------------------------

The last three rules share a recipe worth copying: pick the *declarative
anchor* (a table like ``WIRE_TYPES``/``ROUTES``, or a class pair like
hub/supervisor), parse both sides of the boundary with the
class/signature index in :mod:`repro.analysis.walker`
(:class:`~repro.analysis.walker.ClassIndex` for class lookups,
:func:`~repro.analysis.walker.public_surface` for API shape,
:class:`~repro.analysis.walker.MethodIndex` for reachability), and
report drift in *both* directions — a handler nobody dispatches is as
much a bug as a dispatch nobody handles.  Keep resolution name-based and
conservative: ambiguous names resolve to nothing, because a rule that
false-positives on the real tree gets waived into uselessness.

Adding a rule
-------------

1. Create ``rules/<name>.py`` with a class exposing ``name`` (kebab-case
   string), ``description``, and ``check(project) -> list[Finding]``.
   The :class:`~repro.analysis.walker.Project` argument gives you every
   parsed module plus the shared AST helpers in
   :mod:`repro.analysis.walker`.
2. Register it in ``rules/__init__.py`` via
   :func:`~repro.analysis.engine.register_rule`.
3. Add a fixture module under ``tests/fixtures/lint/`` that the rule
   flags, and a test in ``tests/test_analysis.py`` asserting the finding
   appears in the JSON report.  A rule without a fixture is a rule
   nobody knows works.

Deliberate exceptions are waived per line with ``# lint: allow(<rule>)``;
``repro-lint --waivers <paths>`` inventories every pragma with its
rule, path, line, and verdict.  A waiver that no longer suppresses
anything — or names a rule that does not exist — is reported as a
``stale-waiver`` finding, so exceptions rot loudly.

Incremental engine
------------------

The cache under ``.repro-lint-cache/`` (gitignored) is on by default:
per-module ASTs are keyed on ``(content_hash, parser_version)`` and the
full findings report on the project fingerprint (file hashes + active
rules + a digest of this package's own sources), so a byte-identical
re-run is answered without parsing or rule execution.  Knobs:
``--cache-dir DIR`` relocates it, ``--no-cache`` bypasses it, and
``--changed-only`` intersects the targets with ``git diff HEAD`` plus
untracked files for fast pre-commit sweeps.  Cache effectiveness is
observable (and CI-asserted) via the ``cache`` counters in the JSON
report — never via wall clock.

Reports
-------

``repro-lint src/`` prints a text report and exits ``1`` on findings.
``--format json`` / ``--json-report PATH`` emit the stable JSON schema
(``{"version": 2, "modules": N, "rules": [...], "findings": [{"rule",
"path", "line", "message"}, ...], "waivers": [{"path", "line", "rule",
"active"}, ...], "cache": {"enabled", "findings_hit", "ast_hits",
"ast_misses"}}``) that CI uploads as an artifact.
"""

from .cache import CacheStats, LintCache
from .engine import (
    Finding,
    LintReport,
    Waiver,
    all_rules,
    register_rule,
    render_json,
    render_text,
    render_waivers,
    run_rules,
)
from .walker import ModuleInfo, Project, load_project

__all__ = [
    "CacheStats",
    "Finding",
    "LintCache",
    "LintReport",
    "ModuleInfo",
    "Project",
    "Waiver",
    "all_rules",
    "load_project",
    "register_rule",
    "render_json",
    "render_text",
    "render_waivers",
    "run_rules",
]
