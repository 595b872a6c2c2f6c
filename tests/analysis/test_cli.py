"""CLI contract: exit codes, JSON output, rule listing, baseline errors."""

import json
import os

from repro.analysis.cli import main

from tests.analysis.conftest import REPO_ROOT, fixture_path

BAD_UNITS = fixture_path("costmodel", "bad_units.py")
GOOD_UNITS = fixture_path("costmodel", "good_units.py")


def test_clean_tree_exits_zero(capsys):
    code = main([GOOD_UNITS, "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_findings_exit_one(capsys):
    code = main([BAD_UNITS, "--no-baseline"])
    out = capsys.readouterr().out
    assert code == 1
    assert "unit-safety" in out


def test_repo_scan_with_default_baseline_is_clean(capsys, monkeypatch):
    monkeypatch.chdir(REPO_ROOT)
    code = main([os.path.join("src", "repro")])
    capsys.readouterr()
    assert code == 0


def test_json_format_parses(capsys):
    code = main([BAD_UNITS, "--no-baseline", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["tool"] == "repro.analysis"
    assert payload["summary"]["unbaselined"] > 0


def test_rules_subset(capsys):
    code = main([BAD_UNITS, "--no-baseline", "--rules", "determinism"])
    out = capsys.readouterr().out
    assert code == 0
    assert "0 finding(s)" in out


def test_unknown_rule_exits_two(capsys):
    code = main([BAD_UNITS, "--rules", "nope"])
    err = capsys.readouterr().err
    assert code == 2
    assert "unknown rule" in err


def test_missing_baseline_file_exits_two(capsys):
    code = main([BAD_UNITS, "--baseline", "/nonexistent/baseline.json"])
    err = capsys.readouterr().err
    assert code == 2
    assert "baseline not found" in err


def test_malformed_baseline_exits_two(tmp_path, capsys):
    bad = tmp_path / "analysis-baseline.json"
    bad.write_text(json.dumps({"version": 1, "suppressions": [{}]}))
    code = main([BAD_UNITS, "--baseline", str(bad)])
    err = capsys.readouterr().err
    assert code == 2
    assert "missing or empty field" in err


def test_list_rules(capsys):
    code = main(["--list-rules"])
    out = capsys.readouterr().out
    assert code == 0
    for rule in (
        "unit-safety",
        "determinism",
        "vectorization",
        "simulated-coherence",
    ):
        assert rule in out


def test_tree_under_a_scratch_directory_is_still_scanned(tmp_path, capsys):
    # Default excludes match relative to the scan root: a tree that
    # merely *lives* under a scratch directory is analyzed, not skipped.
    src = tmp_path / "scratch" / "anl" / "src" / "repro" / "costmodel"
    src.mkdir(parents=True)
    (src / "bad_units.py").write_text(open(BAD_UNITS, encoding="utf-8").read())
    code = main([str(tmp_path / "scratch" / "anl" / "src"), "--strict", "--no-baseline"])
    out = capsys.readouterr().out
    assert "1 file(s) scanned" in out
    assert code == 1


def test_scratch_directories_inside_the_scan_root_are_pruned(tmp_path, capsys):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    (scratch / "bad_units.py").write_text(open(BAD_UNITS, encoding="utf-8").read())
    (tmp_path / "good_units.py").write_text(open(GOOD_UNITS, encoding="utf-8").read())
    code = main([str(tmp_path), "--no-baseline"])
    assert "1 file(s) scanned" in capsys.readouterr().out
    assert code == 0


def test_zero_files_analyzed_exits_nonzero(tmp_path, capsys):
    (tmp_path / "notes.txt").write_text("no python here\n")
    code = main([str(tmp_path), "--strict", "--no-baseline"])
    err = capsys.readouterr().err
    assert code == 2
    assert "no Python files to analyze" in err
