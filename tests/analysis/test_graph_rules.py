"""REP008 and REP011: the whole-program rules against on-disk fixtures.

Each fixture project under ``fixtures/`` seeds one true positive (the
regression the rule exists to catch), one noqa'd case, and one clean
case, with the violation and its cause split across modules so the
rules' cross-module reach is what is actually under test.
"""

from pathlib import Path

from repro.analysis.runner import run_analysis

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def report_for(name: str, code: str, **options):
    root = FIXTURES / name
    return run_analysis(root, overrides={"select": [code], **options})


class TestConcurrencyDiscipline:
    def test_cross_module_unguarded_mutation_is_caught(self):
        report = report_for("rep008", "REP008")
        mutations = [f for f in report.findings if "SharedCounter.total" in f.message]
        assert len(mutations) == 1
        finding = mutations[0]
        assert finding.path == "src/pkg/state.py"
        # The evidence points back at the thread spawn in the other module.
        assert finding.related
        assert finding.related[0].path == "src/pkg/worker.py"

    def test_lock_guard_and_noqa_and_clean(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/order.py"]}},
        )
        messages = " ".join(f.message for f in report.findings)
        assert "safe_total" not in messages  # held lock: clean
        assert "quiet_total" not in messages  # suppressed inline
        assert report.suppressed >= 1

    def test_lock_order_inversion_is_caught(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/order.py"]}},
        )
        inversions = [f for f in report.findings if "inversion" in f.message]
        assert len(inversions) == 1
        assert inversions[0].path == "src/pkg/order.py"
        assert inversions[0].related, "the opposing acquisition site must be attached"

    def test_inversion_outside_configured_modules_is_ignored(self):
        report = report_for(
            "rep008",
            "REP008",
            **{"concurrency-discipline": {"lock-order-modules": ["src/pkg/elsewhere.py"]}},
        )
        assert not [f for f in report.findings if "inversion" in f.message]


class TestAsyncSafety:
    def _report(self):
        return report_for("rep011", "REP011", **{"async-safety": {"paths": ["src"]}})

    def test_blocking_sleep_is_caught(self):
        report = self._report()
        ticks = [f for f in report.findings if "time.sleep" in f.message and f.line]
        assert any("tick" in f.message for f in ticks)

    def test_blocking_through_sync_helper_is_caught_with_evidence(self):
        report = self._report()
        relays = [f for f in report.findings if "warm_up" in f.message]
        assert len(relays) == 1
        assert relays[0].related
        assert relays[0].related[0].note.startswith("blocking time.sleep")

    def test_waiting_pool_shutdown_is_caught(self):
        report = self._report()
        assert any("shutdown" in f.message for f in report.findings)

    def test_noqa_and_clean_coroutine(self):
        report = self._report()
        assert report.suppressed == 1
        lines = {f.line for f in report.findings}
        # clean(): asyncio.sleep and run_in_executor produce nothing.
        clean_src = (FIXTURES / "rep011/src/pkg/daemon.py").read_text().splitlines()
        clean_start = next(
            i for i, line in enumerate(clean_src, start=1) if "async def clean" in line
        )
        assert all(line < clean_start for line in lines)
