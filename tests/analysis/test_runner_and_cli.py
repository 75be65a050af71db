"""The driver and CLI: partitioning, baseline, selection, exit codes, goldens."""

import json
from pathlib import Path

import pytest

from repro.analysis.baseline import BASELINE_VERSION, Baseline
from repro.analysis.cli import main
from repro.analysis.runner import run_analysis

from .conftest import MINIMAL_PYPROJECT

GOLDENS = Path(__file__).parent / "goldens"

# Fixed fixture behind the golden-file tests: one REP003 finding (line 1)
# and one REP004 finding (line 5).  Selection is pinned in pyproject so
# the goldens also exercise [tool.repro-analysis] loading.
GOLDEN_PYPROJECT = (
    MINIMAL_PYPROJECT + '\n[tool.repro-analysis]\nselect = ["REP003", "REP004"]\n'
)
GOLDEN_APP = 'cache = {}\n\n\ndef check(x):\n    return x == 0.5\n'


def golden_project(project):
    return project({"src/pkg/app.py": GOLDEN_APP}, pyproject=GOLDEN_PYPROJECT)


class TestPartitioning:
    def test_inline_noqa_is_counted_not_reported(self, project):
        root = project({"src/pkg/a.py": "cache = {}  # repro: noqa[REP003]\n"})
        report = run_analysis(root, overrides={"select": ["REP003"]})
        assert report.findings == []
        assert report.suppressed == 1

    def test_blanket_noqa_suppresses_every_rule(self, project):
        root = project({"src/pkg/a.py": "cache = {}  # repro: noqa\n"})
        report = run_analysis(root, overrides={"select": ["REP003"]})
        assert report.findings == []
        assert report.suppressed == 1

    def test_noqa_for_another_code_does_not_suppress(self, project):
        root = project({"src/pkg/a.py": "cache = {}  # repro: noqa[REP004]\n"})
        report = run_analysis(root, overrides={"select": ["REP003"]})
        assert len(report.findings) == 1
        assert report.suppressed == 0

    def test_findings_sort_by_location(self, project):
        root = project(
            {
                "src/pkg/b.py": "cache = {}\n",
                "src/pkg/a.py": "state = []\n\ndef f(x):\n    return x == 0.5\n",
            }
        )
        report = run_analysis(root, overrides={"select": ["REP003", "REP004"]})
        locations = [(f.path, f.line) for f in report.findings]
        assert locations == sorted(locations)


class TestSelection:
    def test_select_by_kebab_name(self, project):
        root = golden_project(project)
        report = run_analysis(root, overrides={"select": ["shard-safety"]})
        assert [f.code for f in report.findings] == ["REP003"]

    def test_ignore_removes_a_rule(self, project):
        root = golden_project(project)
        report = run_analysis(root, overrides={"ignore": ["REP004"]})
        assert [f.code for f in report.findings] == ["REP003"]

    def test_pyproject_select_is_honoured(self, project):
        root = golden_project(project)
        report = run_analysis(root)
        assert report.rules_run == ("REP003", "REP004")

    def test_cli_select_accepts_comma_lists(self, project, capsys):
        root = golden_project(project)
        rc = main([str(root / "src"), "--select", "REP003,REP004"])
        assert rc == 1
        out = capsys.readouterr().out
        assert "REP003" in out and "REP004" in out


class TestBaseline:
    def test_write_baseline_then_clean_run(self, project, capsys):
        root = golden_project(project)
        assert main([str(root / "src"), "--write-baseline"]) == 0
        baseline_path = root / "analysis-baseline.json"
        assert baseline_path.is_file()
        data = json.loads(baseline_path.read_text())
        assert data["version"] == BASELINE_VERSION
        assert len(data["findings"]) == 2

        capsys.readouterr()
        assert main([str(root / "src")]) == 0
        report = run_analysis(root)
        assert report.findings == [] and len(report.baselined) == 2

    def test_fixed_finding_goes_stale(self, project):
        root = golden_project(project)
        assert main([str(root / "src"), "--write-baseline"]) == 0
        (root / "src/pkg/app.py").write_text("CACHE = {}\n\n\ndef check(x):\n    return x == 0.5\n")
        report = run_analysis(root)
        assert len(report.baselined) == 1
        assert len(report.stale_baseline) == 1

    def test_stale_entries_warn_in_text_output(self, project, capsys):
        root = golden_project(project)
        assert main([str(root / "src"), "--write-baseline"]) == 0
        (root / "src/pkg/app.py").write_text("x = 1\n")
        capsys.readouterr()
        assert main([str(root / "src")]) == 0
        assert "no longer matches any finding" in capsys.readouterr().out

    def test_wrong_version_is_rejected(self, project):
        root = golden_project(project)
        path = root / "analysis-baseline.json"
        path.write_text('{"version": 99, "findings": {}}')
        with pytest.raises(ValueError, match="version-1"):
            Baseline.load(path)


class TestExitCodes:
    def test_clean_tree_exits_zero(self, project, capsys):
        root = project({"src/pkg/a.py": "X = 1\n"}, pyproject=GOLDEN_PYPROJECT)
        assert main([str(root / "src")]) == 0
        assert "0 findings" in capsys.readouterr().out

    def test_findings_exit_one(self, project, capsys):
        root = golden_project(project)
        assert main([str(root / "src")]) == 1
        out = capsys.readouterr().out
        assert "src/pkg/app.py:1:0: REP003" in out
        assert "2 findings" in out

    def test_bad_format_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["--format", "yaml"])
        assert exc.value.code == 2


class TestCliSurface:
    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for code in ("REP003", "REP004", "REP005", "REP006", "REP007", "REP008", "REP011"):
            assert code in out
        for code in ("REP001", "REP002", "REP009", "REP010"):
            assert code not in out

    def test_output_file(self, project, tmp_path):
        root = golden_project(project)
        out = root / "report.txt"
        assert main([str(root / "src"), "--output", str(out)]) == 1
        assert "2 findings" in out.read_text()


class TestGoldens:
    """Byte-exact machine output; regenerate with scripts/refresh_goldens.py."""

    def render(self, project, fmt):
        root = golden_project(project)
        out = root / f"report.{fmt}"
        assert main([str(root / "src"), "--format", fmt, "--output", str(out)]) == 1
        return out.read_text()

    def test_json_golden(self, project):
        assert self.render(project, "json") == (GOLDENS / "report.json").read_text()

    def test_sarif_golden(self, project):
        assert self.render(project, "sarif") == (GOLDENS / "report.sarif").read_text()

    def test_sarif_is_wellformed(self, project):
        log = json.loads(self.render(project, "sarif"))
        assert log["version"] == "2.1.0"
        run = log["runs"][0]
        assert run["tool"]["driver"]["name"] == "repro-analysis"
        assert len(run["results"]) == 2
        for result in run["results"]:
            assert result["partialFingerprints"]["reproAnalysis/v1"]
            location = result["locations"][0]["physicalLocation"]
            assert location["artifactLocation"]["uriBaseId"] == "SRCROOT"
