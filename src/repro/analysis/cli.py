"""``repro-lint`` — the command-line front end of :mod:`repro.analysis`.

Usage::

    repro-lint src/                      # text report, exit 1 on findings
    repro-lint --format json src/        # JSON report on stdout
    repro-lint --json-report out.json src/   # text to stdout, JSON to file
    repro-lint --rule lock-discipline src/   # run a subset of rules
    repro-lint --changed-only src/       # only files the git diff touches
    repro-lint --waivers src/            # inventory the allow() pragmas
    repro-lint --no-cache src/           # bypass .repro-lint-cache/
    repro-lint --list-rules              # show the registered rules

The incremental cache is on by default (``.repro-lint-cache/`` under the
repo root); a byte-identical re-run is answered from it without parsing
or re-checking anything — the ``cache`` section of the JSON report says
which path was taken.  ``--changed-only`` intersects the targets with
``git diff HEAD`` plus untracked files: right for a fast pre-commit
sweep, while CI keeps linting the full tree (project-wide rules only see
the subset they are given).

Exit codes: ``0`` no findings, ``1`` findings reported, ``2`` usage
error (unknown rule, no such path, ``--changed-only`` outside git).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from typing import List, Optional, Sequence, Set

from .cache import LintCache, default_cache_dir
from .engine import (
    all_rules,
    render_json,
    render_text,
    render_waivers,
    run_rules,
)
from .walker import find_repo_root, iter_python_files


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-lint",
        description=(
            "Project-invariant linter: lock discipline, inference purity, "
            "wire error-code registry, path hygiene, API surface, and the "
            "cross-process contracts (rpc-parity, pickle-safety, "
            "route-registry)."
        ),
    )
    parser.add_argument(
        "paths", nargs="*", help="files or directories to lint"
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format written to stdout (default: text)",
    )
    parser.add_argument(
        "--json-report",
        metavar="PATH",
        default=None,
        help="also write the JSON report to PATH",
    )
    parser.add_argument(
        "--rule",
        action="append",
        metavar="NAME",
        default=None,
        help="run only the named rule (repeatable)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    parser.add_argument(
        "--changed-only",
        action="store_true",
        help="lint only files touched by the git diff (plus untracked)",
    )
    parser.add_argument(
        "--waivers",
        action="store_true",
        help="inventory every 'lint: allow' pragma (rule/path/line) and exit 0",
    )
    parser.add_argument(
        "--cache-dir",
        metavar="DIR",
        default=None,
        help="incremental cache location (default: <repo>/.repro-lint-cache)",
    )
    parser.add_argument(
        "--no-cache",
        action="store_true",
        help="disable the incremental cache for this run",
    )
    return parser


def _git_changed_files(root: str) -> Optional[Set[str]]:
    """Absolute paths of files changed vs HEAD plus untracked files, or
    ``None`` when git is unavailable / not a checkout."""
    changed: Set[str] = set()
    for args in (
        ["git", "-C", root, "diff", "--name-only", "HEAD", "--"],
        ["git", "-C", root, "ls-files", "--others", "--exclude-standard"],
    ):
        try:
            result = subprocess.run(
                args, capture_output=True, text=True, check=True, timeout=30
            )
        except (OSError, subprocess.SubprocessError):
            return None
        for line in result.stdout.splitlines():
            line = line.strip()
            if line:
                changed.add(os.path.abspath(os.path.join(root, line)))
    return changed


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    rules = all_rules()
    if args.list_rules:
        for rule in rules:
            print(f"{rule.name}: {rule.description}")
        return 0

    if not args.paths:
        parser.print_usage(sys.stderr)
        print("repro-lint: error: no paths given", file=sys.stderr)
        return 2

    missing = [path for path in args.paths if not os.path.exists(path)]
    if missing:
        for path in missing:
            print(f"repro-lint: error: no such path: {path}", file=sys.stderr)
        return 2

    if args.rule:
        by_name = {rule.name: rule for rule in rules}
        unknown = [name for name in args.rule if name not in by_name]
        if unknown:
            known = ", ".join(sorted(by_name))
            for name in unknown:
                print(
                    f"repro-lint: error: unknown rule {name!r} (known: {known})",
                    file=sys.stderr,
                )
            return 2
        rules = [by_name[name] for name in args.rule]

    lint_paths: List[str] = list(args.paths)
    if args.changed_only:
        root = find_repo_root(args.paths[0]) or os.getcwd()
        changed = _git_changed_files(root)
        if changed is None:
            print(
                "repro-lint: error: --changed-only needs a git checkout",
                file=sys.stderr,
            )
            return 2
        lint_paths = [
            path for path in iter_python_files(args.paths) if path in changed
        ]
        if not lint_paths:
            print("0 changed files under the given paths — nothing to lint")
            return 0

    cache = None
    if not args.no_cache:
        cache_dir = args.cache_dir or default_cache_dir(args.paths)
        cache = LintCache(cache_dir)

    report = run_rules(lint_paths, rules=rules, cache=cache)

    if args.json_report:
        directory = os.path.dirname(os.path.abspath(args.json_report))
        os.makedirs(directory, exist_ok=True)
        with open(args.json_report, "w", encoding="utf-8") as handle:
            json.dump(render_json(report), handle, indent=2, sort_keys=True)
            handle.write("\n")

    if args.waivers:
        if args.format == "json":
            json.dump(render_json(report), sys.stdout, indent=2, sort_keys=True)
            sys.stdout.write("\n")
        else:
            print(render_waivers(report))
        return 0

    if args.format == "json":
        json.dump(render_json(report), sys.stdout, indent=2, sort_keys=True)
        sys.stdout.write("\n")
    else:
        print(render_text(report))

    return 0 if report.ok else 1


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
