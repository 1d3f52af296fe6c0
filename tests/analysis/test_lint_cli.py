"""End-to-end tests for the lint runner, CLI wiring, and reporters."""

import json
import os
import textwrap

import pytest

import repro
from repro.analysis.static.runner import (
    iter_python_files,
    lint_paths,
    main as lint_main,
    run_lint,
)
from repro.cli import main as cli_main

VIOLATIONS = textwrap.dedent(
    """
    import threading
    import time


    class Store:
        def __init__(self):
            self._lock = threading.Lock()
            self.step = 0

        def record(self):
            with self._lock:
                self.step += 1
                time.sleep(1.5)

        def reset(self):
            self.step = 0


    def leak(engine):
        ticket = engine.begin(step=1)
        ticket.submit_chunk(b"x")


    def publish(layout, meta):
        layout.device.write(layout.commit_offset, encode_commit_record(meta))


    def run(engine):
        try:
            engine.checkpoint(b"state")
        except Exception:
            pass


    def poll():
        time.sleep(0.0001)
    """
)

CLEAN = textwrap.dedent(
    """
    import threading

    class Counter:
        def __init__(self):
            self._lock = threading.Lock()
            self.value = 0

        def add(self, n):
            with self._lock:
                self.value += n
    """
)


@pytest.fixture
def bad_file(tmp_path):
    path = tmp_path / "violations.py"
    path.write_text(VIOLATIONS)
    return str(path)


@pytest.fixture
def clean_file(tmp_path):
    path = tmp_path / "clean.py"
    path.write_text(CLEAN)
    return str(path)


class TestRunner:
    def test_every_rule_fires_on_fixture(self, bad_file):
        # Project mode: the unfenced commit write is PC010's call (it
        # checks callers too); PC004 keeps the slot-ordering half only.
        diags, checked = lint_paths([bad_file])
        assert checked == 1
        fired = {d.rule_id for d in diags}
        assert fired == {"PC001", "PC002", "PC003", "PC005", "PC006", "PC010"}

    def test_fixture_single_file_mode_keeps_pc004(self, bad_file):
        diags, checked = lint_paths([bad_file], project=False)
        assert checked == 1
        fired = {d.rule_id for d in diags}
        assert fired == {"PC001", "PC002", "PC003", "PC004", "PC005", "PC006"}

    def test_diagnostics_carry_file_and_line(self, bad_file):
        diags, _ = lint_paths([bad_file])
        for diag in diags:
            assert diag.path == bad_file
            assert diag.line > 0
            assert f"{bad_file}:{diag.line}:" in diag.format()

    def test_clean_file_no_findings(self, clean_file):
        diags, checked = lint_paths([clean_file])
        assert checked == 1
        assert diags == []

    def test_directory_walk_skips_pycache(self, tmp_path):
        (tmp_path / "pkg").mkdir()
        (tmp_path / "pkg" / "mod.py").write_text("x = 1\n")
        cache = tmp_path / "pkg" / "__pycache__"
        cache.mkdir()
        (cache / "mod.cpython-312.py").write_text("x = 1\n")
        files = list(iter_python_files([str(tmp_path)]))
        assert len(files) == 1
        assert files[0].endswith(os.path.join("pkg", "mod.py"))

    def test_select_restricts_rules(self, bad_file, capsys):
        assert run_lint([bad_file], select="PC006") == 1
        out = capsys.readouterr().out
        assert "PC006" in out
        assert "PC001" not in out


class TestCliEntryPoints:
    def test_lint_main_exit_codes(self, bad_file, clean_file, capsys):
        assert lint_main([clean_file]) == 0
        assert lint_main([bad_file]) == 1
        out = capsys.readouterr().out
        assert "PC001" in out and "PC006" in out

    def test_repro_cli_lint_subcommand(self, bad_file, clean_file, capsys):
        assert cli_main(["lint", clean_file]) == 0
        assert cli_main(["lint", bad_file]) == 1
        out = capsys.readouterr().out
        assert f"{bad_file}:" in out

    def test_json_reporter(self, bad_file, capsys):
        assert lint_main([bad_file, "--format", "json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["files_checked"] == 1
        assert payload["counts"]["PC006"] >= 1
        finding = payload["findings"][0]
        assert {"path", "line", "col", "rule", "message"} <= set(finding)

    def test_missing_path_is_usage_error(self, capsys):
        assert lint_main(["/no/such/dir-xyz"]) == 2

    def test_unknown_rule_is_usage_error(self, capsys):
        assert lint_main([".", "--select", "PC999"]) == 2

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ["PC001", "PC002", "PC003", "PC004", "PC005", "PC006"]:
            assert rule_id in out


class TestRepoIsClean:
    def test_whole_source_tree_lints_clean(self, capsys):
        """Acceptance criterion: `pccheck-repro lint src/` exits 0."""
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__)))
        assert cli_main(["lint", src_dir]) == 0
        assert "clean" in capsys.readouterr().out
