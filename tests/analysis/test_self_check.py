"""The repository must pass its own static analysis.

This is the test-suite twin of the CI ``analyze`` job: if a change
introduces a finding, this fails locally before CI does.
"""

from pathlib import Path

from repro.analysis.runner import run_analysis

REPO_ROOT = Path(__file__).resolve().parents[2]


def test_repo_tree_is_clean():
    report = run_analysis(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    rendered = "\n".join(f"{f.location()}: {f.code} {f.message}" for f in report.findings)
    assert report.findings == [], f"repo fails its own analysis:\n{rendered}"
    assert report.rules_run == (
        "REP003",
        "REP004",
        "REP005",
        "REP006",
        "REP007",
        "REP008",
        "REP011",
    )
    assert report.files_scanned > 50


def test_repo_baseline_is_empty():
    report = run_analysis(REPO_ROOT, [REPO_ROOT / "src" / "repro"])
    assert report.baselined == []
    assert report.stale_baseline == []
