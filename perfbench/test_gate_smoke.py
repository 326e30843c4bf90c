"""Smoke check of the benchmark's correctness gate: a perturbed output must trip it.

Kept to a few seconds so the repository's pytest run can collect it; the
benchmark itself runs through run.py.
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (str(HERE.parent / "src"), str(HERE)):
    if path not in sys.path:
        sys.path.insert(0, path)

import harness  # noqa: E402
import workloads  # noqa: E402
from cubefield import walk  # noqa: E402


def _run_stage(name: str, seed: int = 7):
    workload = workloads.Exchangeable(seed)
    workload.prepare()
    stage = next(s for s in workload.stages() if s.name == name)
    ctx = harness.Context("smoke")
    return harness.execute(stage, ctx, traced=True), ctx


def test_gate_passes_the_program_as_is():
    ex, ctx = _run_stage("green-singleflip")
    assert ex.attempted > 300 and ex.failed == 0, ctx.failures
    assert len(ctx.spans) == sum(ex.calls.values())


def test_gate_trips_on_a_perturbed_output(monkeypatch):
    original = walk.green_spectral
    monkeypatch.setattr(walk, "green_spectral", lambda *args: original(*args) * (1 + 1e-6))
    ex, ctx = _run_stage("green-singleflip")
    assert ex.failed > 0
    assert any("green_spectral" in line for line in ctx.failures)


def test_a_raising_call_counts_as_a_failed_operation():
    def broken(ctx):
        ctx.call("walk.green_spectral", walk.green_spectral, None, 0, 0)

    ctx = harness.Context("smoke")
    executions = harness.run_stages([harness.Stage("broken", broken)], 0.0, False, ctx)
    assert [ex.failed for ex in executions] == [1] * (1 + harness.MIN_MEASURED_CYCLES)
    assert "raised" in ctx.failures[0]
