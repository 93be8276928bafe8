"""Tests for :mod:`repro.analysis` — the project-invariant linter.

Every shipped rule is exercised against a fixture module under
``tests/fixtures/lint/`` that violates it (via the JSON reporter, the
same output CI archives), the pragma waiver is proven to suppress (and
to rot loudly when stale), the incremental cache is proven to hit via
its counters, the CLI exit codes are pinned, the cross-boundary rules
are proven to catch seeded mutations of the *real* serving tree, and —
the actual point of the package — the repo's own ``src/`` tree is
asserted clean.
"""

import json
import os
import shutil
import subprocess

import pytest

from repro.analysis import all_rules, render_json, render_text, run_rules
from repro.analysis.cache import LintCache
from repro.analysis.cli import main as lint_main
from repro.analysis.rules import (
    PickleSafetyRule,
    RouteRegistryRule,
    RpcParityRule,
)

FIXTURES = os.path.join(os.path.dirname(__file__), "fixtures", "lint")
SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")
SERVING = os.path.join(SRC, "repro", "serving")


def fixture_findings(name, rule=None):
    report = run_rules([os.path.join(FIXTURES, name)])
    findings = render_json(report)["findings"]
    if rule is not None:
        findings = [f for f in findings if f["rule"] == rule]
    return findings


class TestRulesOnFixtures:
    def test_lock_discipline_flags_blocking_call_under_lock(self):
        findings = fixture_findings("bad_lock_discipline.py", "lock-discipline")
        assert any(
            "time.sleep()" in f["message"] and "_a" in f["message"] for f in findings
        )

    def test_lock_discipline_flags_static_inversion(self):
        findings = fixture_findings("bad_lock_discipline.py", "lock-discipline")
        assert any("lock-order inversion" in f["message"] for f in findings)

    def test_engine_purity_flags_mutation_reachable_from_infer(self):
        findings = fixture_findings("bad_purity.py", "engine-purity")
        # Both the augmented assignment in the helper and the subscript
        # store two calls deep are reachable from infer().
        assert any("CountingModel._bump" in f["message"] for f in findings)
        assert any("CountingModel._score" in f["message"] for f in findings)

    def test_wire_errors_flags_registry_drift(self):
        findings = fixture_findings("bad_wire_errors.py", "wire-errors")
        messages = [f["message"] for f in findings]
        assert any("duplicate error code 'zombie-code'" in m for m in messages)
        assert any(
            "'zombie-code' is registered but never raised" in m for m in messages
        )
        assert any("'blank-code' has no description" in m for m in messages)
        assert any(
            "'phantom-code' is raised but missing from ERROR_CODES" in m
            for m in messages
        )

    def test_path_hygiene_flags_str_coercions_and_fstrings(self):
        findings = fixture_findings("bad_path_hygiene.py", "path-hygiene")
        messages = [f["message"] for f in findings]
        assert any("str() coercion passed to os.makedirs()" in m for m in messages)
        assert any("path-like name 'root'" in m for m in messages)
        assert any("'obj.name'" in m for m in messages)

    def test_api_surface_flags_all_drift(self):
        findings = fixture_findings("bad_api_surface.py", "api-surface")
        messages = [f["message"] for f in findings]
        assert any("__all__ exports 'ghost'" in m for m in messages)
        assert any("duplicate __all__ entry 'exists'" in m for m in messages)

    def test_rpc_parity_flags_every_drift_direction(self):
        findings = fixture_findings("bad_rpc_parity.py", "rpc-parity")
        messages = [f["message"] for f in findings]
        assert any("'brand_new_admin' has no ReplicaSupervisor mirror" in m for m in messages)
        assert any("'replica_status' does not exist on ModelHub" in m for m in messages)
        assert any("not call-compatible" in m and "quarantine" in m for m in messages)
        assert any("stale MIRROR_EXEMPT entry 'predict'" in m for m in messages)
        assert any("OP_FORGOTTEN is never handled" in m for m in messages)
        assert any(
            "introspection 'vanish' is dispatched supervisor-side" in m
            for m in messages
        )
        assert any(
            "'ghost' is handled by ReplicaWorker._introspect" in m for m in messages
        )

    def test_pickle_safety_flags_hazards_and_transitive_chains(self):
        findings = fixture_findings("bad_pickle_safety.py", "pickle-safety")
        messages = [f["message"] for f in findings]
        assert any("Lock()" in m and "self._guard" in m for m in messages)
        assert any("a lambda" in m and "self.transform" in m for m in messages)
        assert any(
            "held via WireResult -> SpanRecorder" in m and "open()" in m
            for m in messages
        )
        assert any("'GhostType'" in m and "stale declaration" in m for m in messages)

    def test_pickle_safety_trusts_imports_on_subset_runs(self):
        """A --changed-only sweep may lint the transport module without the
        modules defining its WIRE_TYPES classes; imported names must read
        as out-of-scope, not stale."""
        transport = os.path.join(SERVING, "replica", "transport.py")
        report = run_rules([transport], rules=[PickleSafetyRule()])
        messages = [f.message for f in report.findings]
        assert not any("stale declaration" in m for m in messages), messages

    def test_route_registry_flags_drift_in_both_directions(self):
        findings = fixture_findings("bad_route_registry.py", "route-registry")
        messages = [f["message"] for f in findings]
        assert any(
            "'GET /v1/debug/secret' is served by _route but missing" in m
            for m in messages
        )
        assert any(
            "'GET /v1/ghost' is not served by _route" in m for m in messages
        )
        assert any("'BREW /v1/predict' is not of the form" in m for m in messages)
        assert any(
            "'GET /v1/models' needs a non-empty description" in m for m in messages
        )

    def test_every_shipped_rule_has_a_firing_fixture(self):
        # The contract from the package docstring: a rule without a
        # fixture that proves it fires is a rule nobody knows works.
        report = run_rules([FIXTURES])
        fired = {f["rule"] for f in render_json(report)["findings"]}
        assert {rule.name for rule in all_rules()} <= fired


class TestSeededMutations:
    """The cross-boundary rules must catch real drift seeded into copies
    of the real serving tree — fixtures prove the rules fire, these prove
    they fire on the code they were built to guard."""

    def _copy(self, tmp_path, names):
        paths = []
        for name in names:
            dest = tmp_path / os.path.basename(name)
            shutil.copyfile(os.path.join(SERVING, name), dest)
            paths.append(str(dest))
        return paths

    def test_new_hub_method_without_mirror_is_caught(self, tmp_path):
        paths = self._copy(
            tmp_path, ["hub.py", "replica/supervisor.py", "replica/worker.py"]
        )
        rule = [RpcParityRule()]
        assert run_rules(paths, rules=rule).findings == []
        hub = tmp_path / "hub.py"
        source = hub.read_text()
        needle = "    def predict("
        hub.write_text(
            source.replace(
                needle,
                "    def brand_new_admin(self, name):\n"
                "        return name\n\n" + needle,
                1,
            )
        )
        findings = run_rules(paths, rules=rule).findings
        assert any(
            "'brand_new_admin' has no ReplicaSupervisor mirror" in f.message
            for f in findings
        )

    def test_lock_smuggled_into_wire_type_is_caught(self, tmp_path):
        paths = self._copy(
            tmp_path,
            [
                "replica/transport.py",
                "replica/config.py",
                "service.py",
                "ensemble.py",
            ]
            + [os.path.join(os.pardir, "graphs", "graph.py")],
        )
        rule = [PickleSafetyRule()]
        baseline = run_rules(paths, rules=rule).findings
        # Only the wire types resolvable from the copied subset matter;
        # the baseline must not flag any hazard.
        assert not any("cannot cross the replica pipe" in f.message for f in baseline)
        config = tmp_path / "config.py"
        source = config.read_text()
        needle = "        self.registry_root = "
        mutated = source.replace(
            needle,
            "        self._guard = threading.Lock()\n" + needle,
            1,
        )
        assert mutated != source
        config.write_text(mutated)
        findings = run_rules(paths, rules=rule).findings
        assert any(
            "Lock()" in f.message and "self._guard" in f.message for f in findings
        )

    def test_unregistered_route_is_caught(self, tmp_path):
        paths = self._copy(tmp_path, ["http.py"])
        rule = [RouteRegistryRule()]
        assert run_rules(paths, rules=rule).findings == []
        http = tmp_path / "http.py"
        source = http.read_text()
        needle = '        if path == "/v1/predict":'
        mutated = source.replace(
            needle,
            '        if path == "/v1/debug/secret":\n'
            "            return {\"GET\": lambda body: {}}\n" + needle,
            1,
        )
        assert mutated != source
        http.write_text(mutated)
        findings = run_rules(paths, rules=rule).findings
        assert any(
            "'GET /v1/debug/secret' is served by _route but missing" in f.message
            for f in findings
        )


class TestEngine:
    def test_repo_src_tree_is_clean(self):
        report = run_rules([SRC])
        assert report.findings == [], render_text(report)

    def test_pragma_suppresses_only_the_named_rule(self, tmp_path):
        victim = tmp_path / "pyproject.toml"
        victim.write_text("[project]\nname='x'\n")
        module = tmp_path / "waived.py"
        module.write_text(
            "import threading\n"
            "import time\n"
            "\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)  # lint: allow(lock-discipline)\n"
            "\n"
            "    def b(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.2)  # lint: allow(some-other-rule)\n"
        )
        report = run_rules([str(module)])
        # Line 10's pragma suppresses its finding; line 14's names a rule
        # that does not exist, so the finding survives AND the bogus
        # pragma is reported as a stale waiver.
        lock_findings = [f for f in report.findings if f.rule == "lock-discipline"]
        assert [f.line for f in lock_findings] == [14]
        stale = [f for f in report.findings if f.rule == "stale-waiver"]
        assert [f.line for f in stale] == [14]
        assert "unknown rule 'some-other-rule'" in stale[0].message

    def test_stale_waiver_on_a_clean_line_is_reported(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        module = tmp_path / "waived.py"
        module.write_text(
            "def fine():\n"
            "    return 1  # lint: allow(lock-discipline)\n"
        )
        report = run_rules([str(module)])
        assert [f.rule for f in report.findings] == ["stale-waiver"]
        assert "no longer fires on this line" in report.findings[0].message
        # The waiver inventory records it as inactive.
        assert [(w.line, w.rule, w.active) for w in report.waivers] == [
            (2, "lock-discipline", False)
        ]

    def test_stale_waiver_not_reported_when_rule_did_not_run(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        module = tmp_path / "waived.py"
        module.write_text(
            "def fine():\n"
            "    return 1  # lint: allow(lock-discipline)\n"
        )
        subset = [r for r in all_rules() if r.name == "api-surface"]
        report = run_rules([str(module)], rules=subset)
        # A subset run cannot tell whether the waived rule would fire.
        assert report.findings == []

    def test_docstrings_mentioning_pragmas_are_not_waivers(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        module = tmp_path / "doc.py"
        module.write_text(
            '"""Suppress with ``# lint: allow(rule-name)`` on the line."""\n'
            "def fine():\n"
            "    return 1\n"
        )
        report = run_rules([str(module)])
        assert report.findings == []
        assert report.waivers == []

    def test_syntax_error_becomes_a_finding_not_a_crash(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        report = run_rules([str(bad)])
        assert [f.rule for f in report.findings] == ["syntax"]

    def test_json_report_schema(self):
        report = run_rules([os.path.join(FIXTURES, "bad_api_surface.py")])
        payload = render_json(report)
        assert payload["version"] == 2
        assert payload["modules"] == 1
        assert set(payload["rules"]) == {rule.name for rule in all_rules()}
        for finding in payload["findings"]:
            assert set(finding) == {"rule", "path", "line", "message"}
            assert isinstance(finding["line"], int)
        for waiver in payload["waivers"]:
            assert set(waiver) == {"path", "line", "rule", "active"}
        assert set(payload["cache"]) == {
            "enabled",
            "findings_hit",
            "ast_hits",
            "ast_misses",
        }

    def test_findings_are_sorted_by_path_then_line(self):
        report = run_rules([FIXTURES])
        keys = [(f.path, f.line, f.rule) for f in report.findings]
        assert keys == sorted(keys)


class TestIncrementalCache:
    def _write_tree(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (tmp_path / "a.py").write_text("def a():\n    return 1\n")
        (tmp_path / "b.py").write_text("def b():\n    return 2\n")
        return tmp_path

    def test_warm_rerun_is_answered_from_the_findings_cache(self, tmp_path):
        tree = self._write_tree(tmp_path)
        cache = LintCache(str(tmp_path / ".cache"))
        cold = run_rules([str(tree)], cache=cache)
        assert cold.cache.enabled
        assert not cold.cache.findings_hit
        assert cold.cache.ast_misses == 2
        warm = run_rules([str(tree)], cache=cache)
        # The measurable speedup, asserted via counters: the warm run
        # never parses and never executes a rule.
        assert warm.cache.findings_hit
        assert warm.cache.ast_hits == 0 and warm.cache.ast_misses == 0
        assert render_json(warm)["findings"] == render_json(cold)["findings"]

    def test_editing_one_file_reuses_the_other_asts(self, tmp_path):
        tree = self._write_tree(tmp_path)
        cache = LintCache(str(tmp_path / ".cache"))
        run_rules([str(tree)], cache=cache)
        (tree / "a.py").write_text("def a():\n    return 99\n")
        report = run_rules([str(tree)], cache=cache)
        assert not report.cache.findings_hit
        assert report.cache.ast_hits == 1  # b.py unchanged
        assert report.cache.ast_misses == 1  # a.py re-parsed

    def test_rule_subset_keys_separately(self, tmp_path):
        tree = self._write_tree(tmp_path)
        cache = LintCache(str(tmp_path / ".cache"))
        run_rules([str(tree)], cache=cache)
        subset = [r for r in all_rules() if r.name == "api-surface"]
        report = run_rules([str(tree)], rules=subset, cache=cache)
        assert not report.cache.findings_hit

    def test_without_cache_counters_stay_disabled(self, tmp_path):
        tree = self._write_tree(tmp_path)
        report = run_rules([str(tree)])
        assert not report.cache.enabled
        assert not report.cache.findings_hit


class TestCli:
    def test_exit_one_on_findings_and_json_report_artifact(self, tmp_path, capsys):
        out = tmp_path / "report" / "lint.json"
        code = lint_main(
            [FIXTURES, "--json-report", str(out), "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["version"] == 2
        assert payload["findings"]
        assert payload["cache"]["enabled"]
        assert "[lock-discipline]" in capsys.readouterr().out

    def test_exit_zero_on_clean_tree(self, tmp_path, capsys):
        assert lint_main([SRC, "--cache-dir", str(tmp_path / "c")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_warm_cli_rerun_reports_cached(self, tmp_path, capsys):
        cache_dir = str(tmp_path / "c")
        target = os.path.join(FIXTURES, "bad_api_surface.py")
        lint_main([target, "--cache-dir", cache_dir])
        capsys.readouterr()
        code = lint_main([target, "--cache-dir", cache_dir, "--format", "json"])
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["cache"]["findings_hit"] is True

    def test_json_format_on_stdout(self, tmp_path, capsys):
        code = lint_main(
            ["--format", "json", FIXTURES, "--cache-dir", str(tmp_path / "c")]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["version"] == 2

    def test_exit_two_on_usage_errors(self, capsys):
        assert lint_main([]) == 2
        assert lint_main(["/no/such/path.py"]) == 2
        assert lint_main(["--rule", "not-a-rule", FIXTURES]) == 2
        err = capsys.readouterr().err
        assert "no paths given" in err
        assert "no such path" in err
        assert "unknown rule" in err

    def test_rule_subset_runs_only_that_rule(self, tmp_path, capsys):
        code = lint_main(
            [
                "--rule",
                "api-surface",
                "--format",
                "json",
                FIXTURES,
                "--cache-dir",
                str(tmp_path / "c"),
            ]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["rules"] == ["api-surface"]
        assert {f["rule"] for f in payload["findings"]} == {"api-surface"}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in all_rules():
            assert rule.name in out

    def test_waivers_inventory_exits_zero(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        module = tmp_path / "waived.py"
        module.write_text(
            "import threading\n"
            "import time\n"
            "\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)  # lint: allow(lock-discipline)\n"
            "\n"
            "def fine():\n"
            "    return 1  # lint: allow(engine-purity)\n"
        )
        code = lint_main(["--waivers", "--no-cache", str(tmp_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "waived.py:10: allow(lock-discipline) — active" in out
        assert "waived.py:13: allow(engine-purity) — stale" in out
        assert "2 waivers (1 active, 1 stale)" in out


class TestChangedOnly:
    def _git(self, cwd, *args):
        subprocess.run(
            ["git", "-C", str(cwd), *args],
            check=True,
            capture_output=True,
            env={
                **os.environ,
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
            },
        )

    def _seed_repo(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        violation = (
            "import threading\n"
            "import time\n"
            "\n"
            "class W:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "\n"
            "    def a(self):\n"
            "        with self._lock:\n"
            "            time.sleep(0.1)\n"
        )
        (tmp_path / "touched.py").write_text("def fine():\n    return 1\n")
        (tmp_path / "untouched.py").write_text(violation)
        self._git(tmp_path, "init", "-q")
        self._git(tmp_path, "add", "-A")
        self._git(tmp_path, "commit", "-qm", "seed")
        return violation

    def test_lints_only_the_git_diff(self, tmp_path, capsys):
        violation = self._seed_repo(tmp_path)
        # untouched.py has a finding, but only touched.py changed.
        (tmp_path / "touched.py").write_text(violation)
        code = lint_main(["--changed-only", "--no-cache", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "touched.py" in out
        assert "untouched.py" not in out

    def test_clean_checkout_lints_nothing(self, tmp_path, capsys):
        self._seed_repo(tmp_path)
        code = lint_main(["--changed-only", "--no-cache", str(tmp_path)])
        assert code == 0
        assert "0 changed files" in capsys.readouterr().out

    def test_untracked_files_count_as_changed(self, tmp_path, capsys):
        violation = self._seed_repo(tmp_path)
        (tmp_path / "fresh.py").write_text(violation)
        code = lint_main(["--changed-only", "--no-cache", str(tmp_path)])
        assert code == 1
        assert "fresh.py" in capsys.readouterr().out

    def test_outside_git_is_a_usage_error(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text("[project]\nname='x'\n")
        (tmp_path / "mod.py").write_text("def fine():\n    return 1\n")
        code = lint_main(["--changed-only", "--no-cache", str(tmp_path)])
        assert code == 2
        assert "needs a git checkout" in capsys.readouterr().err
