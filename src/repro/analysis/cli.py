"""Command-line front end: ``python -m repro.analysis [paths...]``.

Exit codes: 0 = clean (or baseline written or pruned), 1 = findings
reported, 2 = usage error or internal analyzer error.  CI keys off the distinction: 1 means the
*code under analysis* is in violation; 2 means the *analyzer itself*
failed and the result must not be trusted as clean.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Any, Sequence

from .baseline import Baseline
from .config import load_config
from .core import project_root_for
from .reporters import RENDERERS
from .rules import ALL_RULES
from .runner import run_analysis

__all__ = ["build_parser", "main"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="AST-based invariant checker for the repro codebase.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        type=Path,
        help="files or directories to analyze (default: <root>/src)",
    )
    parser.add_argument(
        "--select",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule codes/names to run (default: all)",
    )
    parser.add_argument(
        "--ignore",
        action="append",
        default=[],
        metavar="RULES",
        help="comma-separated rule codes/names to skip",
    )
    parser.add_argument(
        "--format",
        choices=sorted(RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--output",
        type=Path,
        default=None,
        metavar="FILE",
        help="write the report to FILE instead of stdout",
    )
    parser.add_argument(
        "--baseline",
        type=Path,
        default=None,
        metavar="FILE",
        help="baseline file (default: from configuration)",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="snapshot current findings into the baseline file and exit 0",
    )
    parser.add_argument(
        "--prune-baseline",
        action="store_true",
        help="drop baseline entries that no longer match any finding",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="list registered rules and exit",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.code}  {rule.name:<20} {rule.description}")
        return 0

    root = project_root_for(args.paths[0] if args.paths else Path.cwd())
    paths = [Path(p) for p in args.paths] or [root / "src"]

    overrides: dict[str, Any] = {}
    select = _split(args.select)
    ignore = _split(args.ignore)
    if select:
        overrides["select"] = select
    if ignore:
        overrides["ignore"] = ignore

    try:
        report = run_analysis(
            root, paths, overrides=overrides, baseline_path=args.baseline
        )
    except (OSError, SyntaxError, ValueError) as exc:
        # The analyzer itself failed (unreadable tree, corrupt baseline,
        # bad config): exit 2, distinct from "violations found" (1), so
        # CI never mistakes a crashed run for a clean one.
        print(f"internal analyzer error: {exc}", file=sys.stderr)
        return 2

    config = load_config(root, overrides)
    baseline_path = args.baseline or root / str(
        config.get("baseline", "analysis-baseline.json")
    )

    if args.write_baseline:
        pairs = list(zip(report.findings, report.fingerprints)) + report.baselined
        Baseline.from_findings(pairs).save(baseline_path)
        print(f"wrote {baseline_path} ({len(pairs)} findings baselined)")
        return 0

    if args.prune_baseline:
        baseline = Baseline.load(baseline_path)
        for fingerprint in report.stale_baseline:
            baseline.entries.pop(fingerprint, None)
        baseline.save(baseline_path)
        print(
            f"pruned {len(report.stale_baseline)} stale "
            f"entr{'y' if len(report.stale_baseline) == 1 else 'ies'} from "
            f"{baseline_path} ({len(baseline)} kept)"
        )
        report.stale_baseline = []

    rendered = RENDERERS[args.format](report)
    if args.output is not None:
        args.output.write_text(rendered, encoding="utf-8")
    else:
        sys.stdout.write(rendered)
    return report.exit_code


def _split(values: Sequence[str]) -> list[str]:
    out: list[str] = []
    for value in values:
        out.extend(part.strip() for part in value.split(",") if part.strip())
    return out
