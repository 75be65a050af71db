"""Tests for the benchmark itself.

Run from the root of the repository::

    python -m pytest perfbench/tests -q

The smoke runs start real ``serve`` daemons; the whole file takes about a
minute on two cores.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import checks, run, spans, workloads  # noqa: E402
from perfbench.daemon import DaemonError, ServeDaemon  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

#: Per-layer counters that must move (busy) or stay at zero (idle) per
#: workload: proof that the wrappers sit on the paths each workload takes.
BUSY = {
    "append_ingest": ("streams.relation.insert_rows.calls", "sketches.hashing.hash_values.calls",
                      "fastpath.phi_block.calls", "sampling.reservoir.insert_batch.calls"),
    "window_chain": ("streams.relation.delete_rows.calls", "core.synopsis.delete_batch.calls",
                     "bounds.calculator.upper_bound.calls",
                     "streams.engine.estimate.skimmed_sketch.calls"),
    "serve_fleet": ("fleet.protocol.send.frames", "fleet.protocol.recv.bytes",
                    "fleet.executor.scatter.calls", "sharding.partition.split_rows.calls",
                    "resilience.deadletter.validate_rows.calls",
                    "sharding.merge.merge_observer_states.calls"),
}
IDLE = {
    "append_ingest": ("streams.relation.delete_rows.calls", "fleet.protocol.send.frames",
                      "streams.engine.estimate.cosine.calls"),
    "window_chain": ("sampling.reservoir.insert_batch.calls", "fleet.protocol.send.frames"),
    "serve_fleet": ("core.synopsis.insert_batch.calls", "bounds.degree.update_batch.calls"),
}


def _bench(
    cwd: Path, workload: str, trace: int, seconds: str = "1"
) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", seconds, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    # A traced run halves its time; 2 s traced passes the 32-tick window.
    proc = _bench(ROOT, workload, trace, "4" if trace else "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for metric in wanted:
        got = result["metrics"][metric["name"]]
        assert got["unit"] == metric["unit"]
        assert any(
            line.split()[0] == metric["name"] and line.split()[-1] == metric["unit"]
            for line in lines[:-1]
        ), metric["name"]
        if not trace:
            assert got["value"] > 0, metric["name"]
    if trace:
        values = {name: m["value"] for name, m in result["metrics"].items()}
        assert all(values[name] > 0 for name in BUSY[workload]), values
        assert all(values[name] == 0 for name in IDLE[workload]), values


def test_perturbed_reference_fails_the_run(
    monkeypatch: pytest.MonkeyPatch, capsys: pytest.CaptureFixture[str]
) -> None:
    real = checks.join_size
    monkeypatch.setattr(checks, "join_size", lambda f1, f2: real(f1, f2) + 1.0)
    code = run.main(["--workload", "append_ingest", "--seed", "3", "--seconds", "0.3"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result["correct"] is False and result["failed"] > 0


@pytest.mark.parametrize(
    "make", [workloads.append_inputs, workloads.chain_inputs, workloads.serve_inputs]
)
def test_seed_changes_the_generated_inputs(make: object) -> None:
    def flat(inputs: list) -> list[np.ndarray]:
        return [a for item in inputs for a in (item.values() if isinstance(item, dict) else [item])]

    first, again, other = flat(make(1)), flat(make(1)), flat(make(2))  # type: ignore[operator]
    assert all(np.array_equal(a, b) for a, b in zip(first, again))
    assert [a.shape for a in first] == [b.shape for b in other]
    assert [a.dtype for a in first] == [b.dtype for b in other]
    assert any(not np.array_equal(a, b) for a, b in zip(first, other))


def test_seed_changes_nothing_but_the_inputs(monkeypatch: pytest.MonkeyPatch) -> None:
    """With the inputs held fixed, two seeds give identical checked answers."""
    fixed = workloads.append_inputs(7)
    monkeypatch.setattr(workloads, "append_inputs", lambda seed: fixed)
    runs = [
        workloads.run_append(workloads.Phase(seed, 2.0, 1, False, ROOT)) for seed in (1, 2)
    ]
    first_checks = [{m: v[0] for m, v in r.rel_errs.items()} for r in runs]
    assert runs[0].tally.correct and runs[1].tally.correct
    assert first_checks[0] == first_checks[1]


def test_daemon_refuses_to_start_while_an_earlier_one_lives(tmp_path: Path) -> None:
    first = ServeDaemon(ROOT, tmp_path)
    first.start()
    pgid = first.proc.pid if first.proc is not None else 0
    try:
        with pytest.raises(DaemonError, match="still alive"):
            ServeDaemon(ROOT, tmp_path).start()
    finally:
        first.stop()
    with pytest.raises(ProcessLookupError):
        os.killpg(pgid, 0)
    assert not first.pidfile.exists()


def test_bare_directory_exits_nonzero_without_a_result(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, "append_ingest", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_the_union_of_child_intervals() -> None:
    parent = spans.Span(1, 0, "outer", 0.0, 10.0)
    overlapping = [spans.Span(2, 1, "a", 1.0, 4.0), spans.Span(3, 1, "b", 3.0, 5.0)]
    grandchild = spans.Span(4, 2, "c", 2.0, 3.0)
    own = spans.self_times([parent, *overlapping, grandchild])
    assert own == {1: 6.0, 2: 2.0, 3: 2.0, 4: 1.0}
    assert spans.top_level_seconds([parent, *overlapping, grandchild]) == 10.0


def test_wrappers_are_removed_again() -> None:
    from repro.core.synopsis import CosineSynopsis
    from repro.fleet.executor import SocketExecutor

    before = CosineSynopsis.insert_batch
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert CosineSynopsis.insert_batch is not before
        assert "broadcast" in vars(SocketExecutor)
    finally:
        recorder.uninstall()
    assert CosineSynopsis.insert_batch is before
    assert "broadcast" not in vars(SocketExecutor)
